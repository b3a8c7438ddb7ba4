// Tier-1 suite for the online query-feedback loop (src/feedback/): the
// subspace store's canonicalization / eviction / decay / invalidation
// semantics, truth-worker drain and backpressure, hub residual corrections,
// the adaptive estimators' convergence, the serving-layer integration
// (including the cache-hit-still-learns regression), and a concurrent
// learn/estimate smoke for the TSan preset (run_sanitized_tests.sh matches
// these suites by the "Feedback" in their names).

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "core/registry.h"
#include "data/datasets.h"
#include "estimators/extensions/feedback.h"
#include "feedback/hub.h"
#include "feedback/online_model.h"
#include "feedback/truth_worker.h"
#include "serve/server.h"
#include "workload/generator.h"

namespace arecel::feedback {
namespace {

Table SmallTable(uint64_t seed = 5) {
  return GenerateSynthetic2D(/*rows=*/3000, /*skew=*/1.0,
                             /*correlation=*/0.6, /*domain_size=*/40, seed);
}

Query MakeQuery(std::vector<Predicate> predicates) {
  Query query;
  query.predicates = std::move(predicates);
  return query;
}

// ---------- OnlineSubspaceModel ----------

TEST(FeedbackModelTest, FingerprintIsCanonical) {
  const Table table = SmallTable();
  OnlineSubspaceModel model;
  model.BindSchema(table);

  // Predicate order does not matter.
  const Query ab = MakeQuery({{0, 1.0, 5.0}, {1, 2.0, 9.0}});
  const Query ba = MakeQuery({{1, 2.0, 9.0}, {0, 1.0, 5.0}});
  EXPECT_EQ(model.SubspaceFingerprint(ab), model.SubspaceFingerprint(ba));

  // Equality vs range on the same column are different subspaces.
  const Query eq = MakeQuery({{0, 3.0, 3.0}});
  const Query range = MakeQuery({{0, 3.0, 7.0}});
  EXPECT_NE(model.SubspaceFingerprint(eq), model.SubspaceFingerprint(range));

  // A full-domain (vacuous) conjunct is canonicalized away.
  const Column& c1 = table.column(1);
  const Query widened =
      MakeQuery({{0, 1.0, 5.0}, {1, c1.min(), c1.max()}});
  EXPECT_EQ(model.SubspaceFingerprint(widened),
            model.SubspaceFingerprint(MakeQuery({{0, 1.0, 5.0}})));
}

TEST(FeedbackModelTest, ObservePredictIsDeterministic) {
  const Table table = SmallTable();
  OnlineSubspaceModel a, b;
  a.BindSchema(table);
  b.BindSchema(table);

  // Identical observation sequences -> bit-identical predictions.
  for (int i = 0; i < 20; ++i) {
    const Query q = MakeQuery({{0, 1.0 + i % 7, 9.0 + i % 5}});
    const double target = -3.0 + 0.25 * i;
    a.Observe(q, target, 0);
    b.Observe(q, target, 0);
  }
  for (int i = 0; i < 20; ++i) {
    const Query q = MakeQuery({{0, 2.0 + i % 5, 8.0 + i % 7}});
    double pa = 0.0, pb = 0.0;
    ASSERT_EQ(a.Predict(q, &pa), b.Predict(q, &pb));
    EXPECT_EQ(pa, pb) << "probe " << i;
  }
}

TEST(FeedbackModelTest, EmaDecayMatchesHandComputation) {
  FeedbackOptions options;
  options.decay = 0.3;
  options.ema_blend = 0.25;
  options.neighbors = 3;
  OnlineSubspaceModel model(options);
  model.BindSchema(SmallTable());

  const Query q = MakeQuery({{0, 3.0, 12.0}});
  model.Observe(q, -2.0, 0);
  model.Observe(q, -1.0, 0);

  // Both entries sit at feature distance 0 from the probe, so the EMA
  // blend scales to zero and the prediction is the plain kNN average — an
  // exact repeat answers from its own remembered truths.
  const double knn = (-2.0 + -1.0) / 2.0;
  const double ema = 0.3 * -1.0 + 0.7 * -2.0;  // = -1.7, below the knn arm.
  double prediction = 0.0;
  ASSERT_TRUE(model.Predict(q, &prediction));
  EXPECT_NEAR(prediction, knn, 1e-12);

  // A nearby (in-radius) probe keeps the same equidistant neighbours, so
  // its kNN arm is still the plain average, but the distance-scaled EMA
  // blend now pulls the prediction strictly toward the EMA.
  const Query near = MakeQuery({{0, 4.0, 12.0}});
  double near_prediction = 0.0;
  ASSERT_TRUE(model.Predict(near, &near_prediction));
  EXPECT_LT(near_prediction, knn);
  EXPECT_GT(near_prediction, ema);
}

TEST(FeedbackModelTest, RingEvictionIsBounded) {
  FeedbackOptions options;
  options.max_entries_per_subspace = 8;
  OnlineSubspaceModel model(options);
  model.BindSchema(SmallTable());

  const Query q = MakeQuery({{0, 1.0, 20.0}});
  for (int i = 0; i < 50; ++i) model.Observe(q, 0.1 * i, 0);

  const FeedbackModelStats stats = model.Stats();
  EXPECT_EQ(stats.subspaces, 1u);
  EXPECT_EQ(stats.entries, 8u);
  EXPECT_EQ(stats.evicted_entries, 42u);
  EXPECT_EQ(stats.observed, 50u);
}

TEST(FeedbackModelTest, LeastRecentlyObservedSubspaceIsEvicted) {
  FeedbackOptions options;
  options.max_subspaces = 2;
  OnlineSubspaceModel model(options);
  model.BindSchema(SmallTable());

  const Query range0 = MakeQuery({{0, 1.0, 9.0}});
  const Query eq0 = MakeQuery({{0, 4.0, 4.0}});
  const Query range1 = MakeQuery({{1, 2.0, 11.0}});
  model.Observe(range0, -1.0, 0);  // oldest touch.
  model.Observe(eq0, -2.0, 0);
  model.Observe(range1, -3.0, 0);  // forces eviction of range0's subspace.

  EXPECT_EQ(model.Stats().subspaces, 2u);
  EXPECT_EQ(model.Stats().evicted_subspaces, 1u);
  double unused = 0.0;
  EXPECT_FALSE(model.Predict(range0, &unused));
  EXPECT_TRUE(model.Predict(eq0, &unused));
  EXPECT_TRUE(model.Predict(range1, &unused));
}

TEST(FeedbackModelTest, VersionBumpDropsStaleEntries) {
  OnlineSubspaceModel model;
  model.BindSchema(SmallTable());

  const Query old_only = MakeQuery({{0, 1.0, 9.0}});
  const Query mixed = MakeQuery({{1, 1.0, 9.0}});
  model.Observe(old_only, -1.0, /*version=*/0);
  model.Observe(mixed, -4.0, /*version=*/0);
  model.Observe(mixed, -2.0, /*version=*/1);

  EXPECT_EQ(model.InvalidateOlderThan(1), 2u);

  double prediction = 0.0;
  // The all-stale subspace is gone entirely.
  EXPECT_FALSE(model.Predict(old_only, &prediction));
  // The mixed subspace keeps only the fresh truth; with one survivor both
  // the kNN and the rebuilt EMA equal its target exactly.
  ASSERT_TRUE(model.Predict(mixed, &prediction));
  EXPECT_NEAR(prediction, -2.0, 1e-12);
  EXPECT_EQ(model.Stats().invalidated, 2u);
}

TEST(FeedbackModelTest, TrustRadiusGatesFarPredictions) {
  FeedbackOptions options;
  options.trust_radius = 0.1;
  OnlineSubspaceModel model(options);
  const Table table = SmallTable();
  model.BindSchema(table);

  const Column& c0 = table.column(0);
  const double lo = c0.min(), hi = c0.max();
  const Query near_lo = MakeQuery({{0, lo, lo + 0.1 * (hi - lo)}});
  const Query near_hi = MakeQuery({{0, lo + 0.8 * (hi - lo), hi - 0.01}});
  model.Observe(near_lo, -1.0, 0);

  double prediction = 0.0;
  EXPECT_TRUE(model.Predict(near_lo, &prediction));
  // Same subspace, but far away in feature space: refuse to extrapolate.
  EXPECT_FALSE(model.Predict(near_hi, &prediction));
  EXPECT_GE(model.Stats().misses, 1u);
}

TEST(FeedbackModelTest, SerializeRoundTripIsBitExact) {
  OnlineSubspaceModel model;
  const Table table = SmallTable();
  model.BindSchema(table);
  for (int i = 0; i < 40; ++i)
    model.Observe(MakeQuery({{i % 2, 1.0 + i % 9, 11.0 + i % 13}}),
                  -0.17 * i, static_cast<uint64_t>(i % 3));

  ByteWriter writer;
  ASSERT_TRUE(model.Serialize(&writer));
  OnlineSubspaceModel restored;
  ByteReader reader(writer.buffer());
  ASSERT_TRUE(restored.Deserialize(&reader));

  for (int i = 0; i < 30; ++i) {
    const Query q = MakeQuery({{i % 2, 2.0 + i % 7, 9.0 + i % 11}});
    double a = 0.0, b = 0.0;
    ASSERT_EQ(model.Predict(q, &a), restored.Predict(q, &b));
    EXPECT_EQ(a, b);
  }
}

// ---------- TruthWorker ----------

TEST(FeedbackTruthWorkerTest, DrainWaitsForAllJobs) {
  const auto table = std::make_shared<const Table>(SmallTable());
  std::atomic<int> labeled{0};
  std::vector<double> truths;
  std::mutex truths_mutex;
  TruthWorker worker(
      [&](const TruthJob& job, double truth) {
        (void)job;
        ++labeled;
        std::lock_guard<std::mutex> lock(truths_mutex);
        truths.push_back(truth);
      },
      /*queue_capacity=*/64);

  const Query q = MakeQuery({{0, 1.0, 20.0}});
  const double expected = ExecuteSelectivity(*table, q);
  for (int i = 0; i < 10; ++i) {
    TruthJob job;
    job.query = q;
    job.snapshot = table;
    ASSERT_TRUE(worker.Enqueue(std::move(job)));
  }
  worker.Drain();

  EXPECT_EQ(labeled.load(), 10);
  EXPECT_EQ(worker.Stats().completed, 10u);
  EXPECT_EQ(worker.Stats().pending, 0u);
  std::lock_guard<std::mutex> lock(truths_mutex);
  for (double truth : truths) EXPECT_EQ(truth, expected);
}

TEST(FeedbackTruthWorkerTest, FullQueueDropsNewJobs) {
  // Block the worker inside the first callback so the queue backs up
  // deterministically.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool release = false;
  bool entered = false;
  TruthWorker worker(
      [&](const TruthJob& job, double truth) {
        (void)job;
        (void)truth;
        std::unique_lock<std::mutex> lock(gate_mutex);
        entered = true;
        gate_cv.notify_all();
        gate_cv.wait(lock, [&] { return release; });
      },
      /*queue_capacity=*/2);

  const auto table = std::make_shared<const Table>(SmallTable());
  auto make_job = [&] {
    TruthJob job;
    job.query = MakeQuery({{0, 1.0, 5.0}});
    job.snapshot = table;
    return job;
  };
  ASSERT_TRUE(worker.Enqueue(make_job()));  // picked up by the worker.
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return entered; });
  }
  EXPECT_TRUE(worker.Enqueue(make_job()));   // queue slot 1.
  EXPECT_TRUE(worker.Enqueue(make_job()));   // queue slot 2.
  EXPECT_FALSE(worker.Enqueue(make_job()));  // full: dropped, counted.
  EXPECT_EQ(worker.Stats().dropped, 1u);

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release = true;
  }
  gate_cv.notify_all();
  worker.Drain();
  EXPECT_EQ(worker.Stats().completed, 3u);
}

TEST(FeedbackTruthWorkerTest, StopRejectsFurtherWork) {
  TruthWorker worker([](const TruthJob&, double) {}, 8);
  worker.Stop();
  TruthJob job;
  job.query = MakeQuery({{0, 1.0, 5.0}});
  EXPECT_FALSE(worker.Enqueue(std::move(job)));
}

// ---------- FeedbackHub ----------

TEST(FeedbackHubTest, ResidualCorrectionMovesTowardTruth) {
  FeedbackHub hub;
  const auto table = std::make_shared<const Table>(SmallTable());
  const Query q = MakeQuery({{0, 1.0, 20.0}});
  const double truth = ExecuteSelectivity(*table, q);
  const double base = truth / 8.0;  // a badly underestimating model.

  TruthJob job;
  job.dataset = "t";
  job.estimator = "stub";
  job.query = q;
  job.base_selectivity = base;
  job.snapshot = table;
  hub.LearnTruth(job, truth);

  const double corrected =
      hub.Correct("t", "stub", q, base, table->num_rows());
  EXPECT_NEAR(corrected, truth, 0.05 * truth);
  // Unknown (dataset, estimator) or unseen subspace: pass through.
  EXPECT_EQ(hub.Correct("t", "other", q, base, table->num_rows()), base);
  EXPECT_EQ(hub.Correct("t", "stub", MakeQuery({{1, 0.0, 3.0}}), base,
                        table->num_rows()),
            base);
}

TEST(FeedbackHubTest, DeliverOverrideBypassesResidualLearning) {
  FeedbackHub hub;
  const auto table = std::make_shared<const Table>(SmallTable());
  const Query q = MakeQuery({{0, 1.0, 20.0}});

  int delivered = 0;
  TruthJob job;
  job.dataset = "t";
  job.estimator = "sink";
  job.query = q;
  job.base_selectivity = 0.01;
  job.snapshot = table;
  job.deliver = [&delivered](const TruthJob&, double) { ++delivered; };
  hub.LearnTruth(job, 0.2);

  EXPECT_EQ(delivered, 1);
  // No residual was learned for the sink's key.
  EXPECT_EQ(hub.Correct("t", "sink", q, 0.01, table->num_rows()), 0.01);
}

TEST(FeedbackHubTest, InvalidateDatasetDropsOldVersions) {
  FeedbackHub hub;
  const auto table = std::make_shared<const Table>(SmallTable());
  const Query q = MakeQuery({{0, 1.0, 20.0}});

  TruthJob job;
  job.dataset = "t";
  job.estimator = "stub";
  job.query = q;
  job.base_selectivity = 0.01;
  job.snapshot = table;
  job.version = 0;
  hub.LearnTruth(job, 0.2);
  ASSERT_NE(hub.Correct("t", "stub", q, 0.01, table->num_rows()), 0.01);

  EXPECT_EQ(hub.InvalidateDataset("t", /*min_version=*/1), 1u);
  EXPECT_EQ(hub.Correct("t", "stub", q, 0.01, table->num_rows()), 0.01);
  // Different dataset is untouched by construction (prefix walk).
  EXPECT_EQ(hub.InvalidateDataset("unrelated", 1), 0u);
}

// A stale model keeps serving until its refresh lands, and the truths of
// its answers carry the old version: learned after the invalidation, they
// must not correct the refreshed model's answers.
TEST(FeedbackHubTest, TruthsServedBelowTheInvalidationFloorAreDropped) {
  FeedbackHub hub;
  const auto table = std::make_shared<const Table>(SmallTable());
  const Query q = MakeQuery({{0, 1.0, 20.0}});
  hub.InvalidateDataset("d", /*min_version=*/1);

  TruthJob job;
  job.dataset = "d";
  job.estimator = "stub";
  job.query = q;
  job.base_selectivity = 0.01;
  job.snapshot = table;
  job.version = 0;
  hub.LearnTruth(job, 0.1);
  EXPECT_EQ(hub.Correct("d", "stub", q, 0.01, table->num_rows()), 0.01);
  EXPECT_EQ(hub.Stats().stale_truths, 1u);

  // A truth served at the new version still learns.
  job.version = 1;
  hub.LearnTruth(job, 0.1);
  EXPECT_NE(hub.Correct("d", "stub", q, 0.01, table->num_rows()), 0.01);
  EXPECT_EQ(hub.Stats().stale_truths, 1u);
}

TEST(FeedbackHubTest, CacheHitJobsAreCounted) {
  FeedbackHub hub;
  const auto table = std::make_shared<const Table>(SmallTable());
  TruthJob job;
  job.dataset = "t";
  job.estimator = "stub";
  job.query = MakeQuery({{0, 1.0, 5.0}});
  job.snapshot = table;
  job.from_cache_hit = true;
  ASSERT_TRUE(hub.EnqueueTruth(std::move(job)));
  hub.Drain();
  EXPECT_EQ(hub.Stats().cache_hit_jobs, 1u);
  EXPECT_EQ(hub.Stats().worker.completed, 1u);
}

// ---------- Adaptive estimators ----------

TEST(FeedbackEstimatorTest, KnnConvergesUnderRepeatedTruth) {
  const Table table = SmallTable();
  const Workload train = GenerateWorkload(table, 200, 7);
  for (const char* name : {"feedback-knn", "feedback-corrected"}) {
    auto estimator = MakeEstimator(name);
    TrainContext context;
    context.training_workload = &train;
    estimator->Train(table, context);
    auto* sink = dynamic_cast<FeedbackSink*>(estimator.get());
    ASSERT_NE(sink, nullptr) << name;

    const Query q = MakeQuery({{0, 2.0, 17.0}, {1, 1.0, 25.0}});
    const double truth = ExecuteSelectivity(table, q);
    for (int i = 0; i < 12; ++i) sink->ObserveTruth(q, truth);
    const double est = estimator->EstimateCardinality(
        q, table.num_rows());
    const double actual = truth * static_cast<double>(table.num_rows());
    EXPECT_LE(QError(est, actual), 1.5) << name;
  }
}

TEST(FeedbackEstimatorTest, UpdateInvalidatesLearnedTruths) {
  const Table table = SmallTable();
  const Workload train = GenerateWorkload(table, 200, 7);
  auto estimator = std::make_unique<FeedbackKnnEstimator>();
  TrainContext context;
  context.training_workload = &train;
  estimator->Train(table, context);

  const Query q = MakeQuery({{0, 2.0, 17.0}});
  estimator->ObserveTruth(q, ExecuteSelectivity(table, q));
  ASSERT_GT(estimator->FeedbackStats().entries, 0u);

  const Table updated = AppendCorrelatedUpdate(table, 0.25, 11);
  Workload update_workload = GenerateWorkload(updated, 100, 13);
  UpdateContext update_context;
  update_context.old_row_count = table.num_rows();
  update_context.update_workload = &update_workload;
  estimator->Update(updated, update_context);

  EXPECT_EQ(estimator->data_version(), 1u);
  EXPECT_GT(estimator->FeedbackStats().invalidated, 0u);
  // Post-update estimates remain valid selectivities.
  const double sel = estimator->EstimateSelectivity(q);
  EXPECT_TRUE(std::isfinite(sel));
  EXPECT_GE(sel, 0.0);
  EXPECT_LE(sel, 1.0);
}

// ---------- Serving-layer integration ----------

serve::ServeOptions FeedbackServeOptions() {
  serve::ServeOptions options;
  options.feedback_enabled = true;
  options.robust.query_deadline_seconds = 0;  // inline inference.
  return options;
}

TEST(FeedbackServeTest, LoopCorrectsServedEstimates) {
  serve::EstimatorServer server(FeedbackServeOptions());
  server.RegisterDataset("t", SmallTable());
  const Table reference = SmallTable();
  const Query q = MakeQuery({{0, 1.0, 3.0}, {1, 1.0, 3.0}});
  const double truth = ExecuteSelectivity(reference, q);

  // First request fills the loop; drain so the truth lands; repeat a few
  // times so the correction's kNN arm saturates at the observed truth.
  serve::EstimateResponse first = server.Estimate("t", "postgres", q);
  ASSERT_TRUE(first.ok);
  for (int i = 0; i < 6; ++i) {
    server.DrainFeedback();
    server.Estimate("t", "postgres", q);
  }
  server.DrainFeedback();
  const serve::EstimateResponse corrected =
      server.Estimate("t", "postgres", q);
  ASSERT_TRUE(corrected.ok);

  const double rows = static_cast<double>(reference.num_rows());
  const double q_before = QError(first.selectivity * rows, truth * rows);
  const double q_after = QError(corrected.selectivity * rows, truth * rows);
  EXPECT_LE(q_after, std::max(1.5, q_before));
  const serve::ServerStats stats = server.Stats();
  EXPECT_TRUE(stats.feedback_enabled);
  EXPECT_GT(stats.feedback.worker.completed, 0u);
  EXPECT_GT(stats.feedback.corrections_applied, 0u);
}

// Regression for the latent gap this PR closes: cache hits used to return
// without any learning signal, so a hot (cached) query never taught the
// loop anything.
TEST(FeedbackServeTest, CacheHitStillEnqueuesTruthJob) {
  serve::EstimatorServer server(FeedbackServeOptions());
  server.RegisterDataset("t", SmallTable());
  const Query q = MakeQuery({{0, 1.0, 9.0}});

  const serve::EstimateResponse miss = server.Estimate("t", "postgres", q);
  ASSERT_TRUE(miss.ok);
  ASSERT_FALSE(miss.cache_hit);
  const serve::EstimateResponse hit = server.Estimate("t", "postgres", q);
  ASSERT_TRUE(hit.ok);
  ASSERT_TRUE(hit.cache_hit);
  server.DrainFeedback();

  serve::ServerStats stats = server.Stats();
  EXPECT_EQ(stats.feedback.cache_hit_jobs, 1u);
  EXPECT_EQ(stats.feedback.worker.enqueued, 2u);
  EXPECT_EQ(stats.feedback.worker.completed, 2u);

  // A batch answers its hits on the calling thread; each answer still
  // enqueues one truth job and passes through Correct().
  std::vector<Query> distinct;
  for (int i = 0; i < 4; ++i) {
    distinct.push_back(MakeQuery({{0, 1.0, 5.0 + i}}));
    ASSERT_FALSE(server.Estimate("t", "postgres", distinct.back()).cache_hit);
  }
  std::vector<Query> batch;
  for (int i = 0; i < 24; ++i) batch.push_back(distinct[i % 4]);
  const std::vector<serve::EstimateResponse> responses =
      server.EstimateBatch("t", "postgres", batch);
  for (const serve::EstimateResponse& response : responses) {
    ASSERT_TRUE(response.ok);
    EXPECT_TRUE(response.cache_hit);
  }
  // Later copies of a query that missed in the same batch are answered
  // from the entry its inference filled: hits, each with its own job.
  const Query fresh = MakeQuery({{0, 2.0, 3.0}});
  const std::vector<serve::EstimateResponse> copies =
      server.EstimateBatch("t", "postgres", {fresh, fresh, fresh});
  EXPECT_FALSE(copies[0].cache_hit);
  EXPECT_TRUE(copies[1].cache_hit);
  EXPECT_TRUE(copies[2].cache_hit);
  server.DrainFeedback();
  stats = server.Stats();
  const uint64_t answers = 2 + distinct.size() + batch.size() + 3;
  EXPECT_EQ(stats.feedback.worker.enqueued, answers);
  EXPECT_EQ(stats.feedback.worker.completed, answers);
  EXPECT_EQ(stats.feedback.cache_hit_jobs, 1 + batch.size() + 2);
  EXPECT_EQ(stats.feedback.corrections_applied +
                stats.feedback.corrections_passthrough,
            answers);
}

TEST(FeedbackServeTest, SinkTruthInvalidatesCachedEstimate) {
  // For a FeedbackSink the cached base estimate goes stale the moment its
  // truth is delivered (the estimator itself now answers differently), so
  // the delivery must drop the cache entry: the repeat re-infers instead of
  // replaying the pre-learning answer.
  serve::EstimatorServer server(FeedbackServeOptions());
  server.RegisterDataset("t", SmallTable());
  const Query q = MakeQuery({{0, 1.0, 9.0}});

  const serve::EstimateResponse first = server.Estimate("t", "feedback-knn", q);
  ASSERT_TRUE(first.ok);
  ASSERT_FALSE(first.cache_hit);
  server.DrainFeedback();

  const serve::EstimateResponse second =
      server.Estimate("t", "feedback-knn", q);
  ASSERT_TRUE(second.ok);
  EXPECT_FALSE(second.cache_hit);
  // The re-inferred answer comes from the learned store: an exact repeat
  // answers from its distance-0 remembered truth (other neighbours carry
  // vanishing weight next to it).
  const double truth = ExecuteSelectivity(SmallTable(), q);
  EXPECT_NEAR(second.selectivity, truth, 1e-3);

  // A non-sink estimator's cached base stays put across deliveries — the
  // residual is applied after lookup instead.
  const serve::EstimateResponse pg_first = server.Estimate("t", "postgres", q);
  ASSERT_TRUE(pg_first.ok);
  server.DrainFeedback();
  const serve::EstimateResponse pg_second =
      server.Estimate("t", "postgres", q);
  ASSERT_TRUE(pg_second.ok);
  EXPECT_TRUE(pg_second.cache_hit);
}

TEST(FeedbackServeTest, UpdateInvalidatesResiduals) {
  serve::EstimatorServer server(FeedbackServeOptions());
  server.RegisterDataset("t", SmallTable());
  const Query q = MakeQuery({{0, 1.0, 9.0}});

  server.Estimate("t", "postgres", q);
  server.DrainFeedback();
  ASSERT_GT(server.Stats().feedback.models.entries, 0u);

  server.Update("t");
  const serve::ServerStats stats = server.Stats();
  EXPECT_GT(stats.feedback.models.invalidated, 0u);
  server.WaitForRefreshes();
}

TEST(FeedbackServeTest, DisabledLoopLeavesServingUntouched) {
  serve::ServeOptions options;
  options.robust.query_deadline_seconds = 0;
  serve::EstimatorServer server(options);
  server.RegisterDataset("t", SmallTable());
  const Query q = MakeQuery({{0, 1.0, 9.0}});
  const serve::EstimateResponse response =
      server.Estimate("t", "postgres", q);
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(server.feedback(), nullptr);
  EXPECT_FALSE(server.Stats().feedback_enabled);
  EXPECT_EQ(server.Stats().feedback.worker.enqueued, 0u);
}

// ---------- Concurrency smoke (TSan preset) ----------

TEST(FeedbackConcurrencyTest, ConcurrentLearnAndEstimate) {
  const Table table = SmallTable();
  const Workload train = GenerateWorkload(table, 150, 7);
  FeedbackKnnEstimator estimator;
  TrainContext context;
  context.training_workload = &train;
  estimator.Train(table, context);

  const Workload probes = GenerateWorkload(table, 60, 9);
  std::atomic<bool> stop{false};
  std::thread learner([&] {
    int i = 0;
    while (!stop.load()) {
      const size_t at = static_cast<size_t>(i++) % probes.size();
      estimator.ObserveTruth(probes.queries[at], probes.selectivities[at]);
    }
  });
  std::vector<std::thread> estimators;
  for (int t = 0; t < 3; ++t) {
    estimators.emplace_back([&] {
      for (int i = 0; i < 400; ++i) {
        const size_t at = static_cast<size_t>(i) % probes.size();
        const double sel =
            estimator.EstimateSelectivity(probes.queries[at]);
        ASSERT_GE(sel, 0.0);
        ASSERT_LE(sel, 1.0);
      }
    });
  }
  for (std::thread& thread : estimators) thread.join();
  stop.store(true);
  learner.join();
}

}  // namespace
}  // namespace arecel::feedback
