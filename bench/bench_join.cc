// Join-estimator accuracy sweep over a correlated, skewed star schema
// (DESIGN.md §13): trains every join-capable estimator on a labelled join
// workload and scores q-errors against the hash-join ground truth — the
// multi-table version of the paper's static accuracy question, where the
// independence-assuming baseline ("postgres-join") must pay for the
// key-banded correlations while the learned (mscn-join) and correlated
// sampling (sampling-join) families see them in their training signal.
// Before any cell runs, the hash executor is differentially checked
// against the nested-loop oracle on a query subsample — a bench whose
// ground truth is wrong measures nothing. Cells run through SweepContext
// (guarded + journaled, estimators built through the fault-injection
// plan), so a killed run resumes at the first missing cell. Emits
// machine-readable BENCH_join.json (default at the repo root).
//
// Usage: bench_join [--smoke] [--out <path>] (bench_report.h); --smoke is a
// tiny configuration for the CTest smoke run.

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "core/evaluator.h"
#include "data/schema.h"
#include "join/join_executor.h"
#include "util/stats.h"
#include "util/timer.h"
#include "workload/join_generator.h"

namespace {

using namespace arecel;

// Shared cell inputs (SweepContext capture contract: guarded bodies own
// shared ownership, so an abandoned worker never dangles into main).
struct JoinInputs {
  Schema schema;
  Workload train;
  std::vector<Query> test;
  std::vector<double> truth_selectivities;  // hash-join ground truth.
};

struct CellResult {
  std::string estimator;
  double p50 = 0.0;
  double p95 = 0.0;
  double worst = 0.0;
  double train_seconds = 0.0;
  double inference_ms = 0.0;  // per query.
  double size_mb = 0.0;
  bool from_journal = false;
  bool ok = false;
  std::string failure;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv, "join");
  const bool smoke = args.smoke;

  const size_t fact_rows = smoke ? 2000 : 30000;
  const size_t dims = smoke ? 2 : 3;
  const size_t dim_rows = smoke ? 32 : 128;
  const size_t train_queries = smoke ? 120 : 1200;
  const size_t test_queries = smoke ? 40 : 400;
  const std::vector<std::string> estimators = {"postgres-join",
                                               "sampling-join", "mscn-join"};

  bench::PrintHeader("bench_join: multi-table join estimator accuracy",
                     "static star-join accuracy, Cartesian-product q-error");
  bench::PrintPaperExpectation(
      "independence-assuming estimation compounds its error per join edge "
      "on correlated schemas; join-aware learned and correlated-sampling "
      "estimators stay near the truth (the multi-join regime of the "
      "paper's follow-up benchmarks)");

  // Correlated + skewed star: dimension payloads band the key space and
  // FK fan-out is Zipf, so a dimension predicate selects a pk band whose
  // true fan-out is far from uniform — exactly where per-edge
  // 1/max(distinct) math goes wrong.
  StarSchemaOptions star;
  star.fact_rows = fact_rows;
  star.num_dimensions = static_cast<int>(dims);
  star.dim_rows = dim_rows;
  star.fk_skew = 1.2;
  star.correlation = 0.9;

  auto inputs = std::make_shared<JoinInputs>();
  inputs->schema = GenerateStarSchema(star, /*seed=*/71);
  inputs->train = GenerateWorkload(inputs->schema, train_queries,
                                   /*seed=*/72);
  inputs->test = GenerateJoinQueries(inputs->schema, test_queries,
                                     /*seed=*/73);
  const join::JoinExecutor executor(inputs->schema);
  inputs->truth_selectivities = executor.Label(inputs->test);

  std::printf("star: fact=%zu dims=%zu x %zu rows, skew=%.1f corr=%.1f; "
              "train=%zu test=%zu\n",
              fact_rows, dims, dim_rows, star.fk_skew, star.correlation,
              train_queries, test_queries);

  // Ground-truth differential check: the hash executor vs the nested-loop
  // oracle, bit-identical counts on a subsample (the oracle is quadratic,
  // so the subsample keeps the check affordable at full scale).
  {
    const size_t check = std::min<size_t>(inputs->test.size(), smoke ? 10 : 25);
    Timer timer;
    for (size_t i = 0; i < check; ++i) {
      const size_t hash_count = executor.Count(inputs->test[i]);
      const size_t naive_count =
          join::ExecuteJoinCountNaive(inputs->schema, inputs->test[i]);
      if (hash_count != naive_count) {
        std::fprintf(stderr,
                     "GROUND TRUTH MISMATCH on query %zu: hash=%zu naive=%zu\n",
                     i, hash_count, naive_count);
        return 1;
      }
    }
    std::printf("oracle check: hash == nested-loop on %zu queries "
                "(%.2fs)\n\n",
                check, timer.ElapsedSeconds());
  }

  bench::SweepContext sweep("bench_join");
  std::vector<CellResult> results;
  std::printf("%16s %9s %9s %10s %9s %12s %9s %s\n", "estimator", "p50",
              "p95", "worst", "train_s", "est_ms/query", "size_mb", "status");
  for (const std::string& name : estimators) {
    CellResult result;
    result.estimator = name;
    auto status = sweep.RunCell(name, "star", [inputs, name] {
      auto estimator = bench::MakeBenchEstimator(name);
      if (!estimator->SupportsJoins())
        throw std::runtime_error(name + " does not support joins");

      TrainContext context;
      context.training_workload = &inputs->train;
      context.seed = 42;
      Timer train_timer;
      estimator->TrainJoin(inputs->schema, context);
      const double train_seconds = train_timer.ElapsedSeconds();

      std::vector<double> qerrors;
      qerrors.reserve(inputs->test.size());
      Timer inference_timer;
      for (size_t i = 0; i < inputs->test.size(); ++i) {
        const Query& query = inputs->test[i];
        const double rows_product =
            join::JoinExecutor::RowsProduct(inputs->schema, query);
        const double truth =
            inputs->truth_selectivities[i] * rows_product;
        bool invalid = false;
        const double qerr = ScoreEstimate(
            estimator->EstimateSelectivity(query),
            static_cast<size_t>(rows_product), truth, &invalid);
        if (invalid)
          throw std::runtime_error("invalid estimate from " + name);
        qerrors.push_back(qerr);
      }
      const double inference_ms =
          inputs->test.empty()
              ? 0.0
              : inference_timer.ElapsedMillis() /
                    static_cast<double>(inputs->test.size());
      return std::vector<std::pair<std::string, double>>{
          {"p50", Percentile(qerrors, 50.0)},
          {"p95", Percentile(qerrors, 95.0)},
          {"worst", Percentile(qerrors, 100.0)},
          {"train_seconds", train_seconds},
          {"inference_ms", inference_ms},
          {"size_mb", static_cast<double>(estimator->SizeBytes()) / 1e6}};
    });
    result.ok = status.ok;
    result.from_journal = status.from_journal;
    result.failure = status.failure;
    for (const auto& [metric, value] : status.metrics) {
      if (metric == "p50") result.p50 = value;
      if (metric == "p95") result.p95 = value;
      if (metric == "worst") result.worst = value;
      if (metric == "train_seconds") result.train_seconds = value;
      if (metric == "inference_ms") result.inference_ms = value;
      if (metric == "size_mb") result.size_mb = value;
    }
    std::printf("%16s %9.3f %9.3f %10.3f %9.2f %12.4f %9.3f %s\n",
                name.c_str(), result.p50, result.p95, result.worst,
                result.train_seconds, result.inference_ms, result.size_mb,
                result.from_journal
                    ? "journal"
                    : (result.ok ? "" : result.failure.c_str()));
    results.push_back(result);
  }

  // Headline: the learned join estimator vs the independence baseline —
  // the bench's acceptance comparison.
  const CellResult* mscn = nullptr;
  const CellResult* independence = nullptr;
  for (const CellResult& result : results) {
    if (result.ok && result.estimator == "mscn-join") mscn = &result;
    if (result.ok && result.estimator == "postgres-join")
      independence = &result;
  }
  if (mscn != nullptr && independence != nullptr)
    std::printf("\nheadline: mscn-join median q-error %.3f vs postgres-join "
                "%.3f on the correlated star (%.2fx %s)\n",
                mscn->p50, independence->p50,
                mscn->p50 > 0 ? independence->p50 / mscn->p50 : 0.0,
                mscn->p50 <= independence->p50 ? "better" : "WORSE");

  // ---- machine-readable artifact ----------------------------------------
  bench::JsonRow star_row;
  star_row.Add("fact_rows", fact_rows).Add("dims", dims);
  star_row.Add("dim_rows", dim_rows).Add("fk_skew", star.fk_skew);
  star_row.Add("correlation", star.correlation);
  std::vector<bench::JsonRow> cells(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    cells[i].Add("estimator", r.estimator).Add("p50", r.p50);
    cells[i].Add("p95", r.p95).Add("worst", r.worst);
    cells[i].Add("train_seconds", r.train_seconds);
    cells[i].Add("inference_ms", r.inference_ms).Add("size_mb", r.size_mb);
    cells[i].Add("ok", r.ok);
  }
  bench::BenchReport report("bench_join");
  report.Add("star", star_row).Add("train_queries", train_queries);
  report.Add("test_queries", test_queries).Add("cells", cells);
  if (!report.WriteTo(args.out)) return 1;

  return sweep.Finish();
}
