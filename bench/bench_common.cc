#include "bench_common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/registry.h"
#include "data/datasets.h"
#include "robustness/guard.h"
#include "util/env.h"

namespace arecel::bench {

namespace {

// Called on the way out of a driver: if any watchdog worker was abandoned
// and is still running, returning through main would destroy the driver's
// state (tables, workloads, AsciiTables the worker may still reference)
// under a live thread. End the process without teardown instead — the exit
// code is unchanged, stdio is flushed, and the journal is already durable
// (it flushes per append).
void ExitNowIfWorkersAbandoned(int exit_code) {
  const int abandoned = robust::AbandonedWorkerCount();
  if (abandoned == 0) return;
  std::printf("[robustness] %d abandoned watchdog worker(s) still running; "
              "exiting without teardown\n",
              abandoned);
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(exit_code);
}

bool JournalingEnabled() {
  const char* v = std::getenv("ARECEL_JOURNAL");
  return v == nullptr || std::string(v) != "0";
}

std::string JournalPath(const std::string& bench_name) {
  if (!JournalingEnabled()) return "";
  const char* dir = std::getenv("ARECEL_JOURNAL_DIR");
  return std::string(dir == nullptr ? "." : dir) + "/" + bench_name +
         ".journal.jsonl";
}

// Journal metric names for EvaluateCell reports (format version bumps the
// fingerprint, invalidating journals written by an older layout).
constexpr char kJournalVersion[] = "journal-v1";

std::vector<std::pair<std::string, double>> ReportMetrics(
    const EstimatorReport& report) {
  return {{"p50", report.qerror.p50},
          {"p95", report.qerror.p95},
          {"p99", report.qerror.p99},
          {"max", report.qerror.max},
          {"train_s", report.train_seconds},
          {"infer_ms", report.avg_inference_ms},
          {"model_bytes", static_cast<double>(report.model_size_bytes)}};
}

}  // namespace

double BenchScale() { return EnvDouble("ARECEL_BENCH_SCALE", 0.5); }

size_t BenchQueryCount() {
  return EnvSize("ARECEL_BENCH_QUERIES", 500);
}

size_t BenchTrainQueryCount() { return BenchQueryCount() * 4; }

std::vector<Table> LoadBenchmarkDatasets() {
  return BenchmarkDatasets(BenchScale(), /*seed=*/2021);
}

void PrintHeader(const std::string& experiment,
                 const std::string& paper_reference) {
  std::printf("==============================================================\n");
  std::printf("%s  (reproduces %s of VLDB'21 \"Are We Ready For Learned\n"
              "Cardinality Estimation?\"; synthetic stand-in datasets,\n"
              "scale=%.2f, %zu test queries)\n",
              experiment.c_str(), paper_reference.c_str(), BenchScale(),
              BenchQueryCount());
  const robust::RobustOptions options = robust::RobustOptionsFromEnv();
  const char* faults = std::getenv("ARECEL_FAULT_INJECT");
  std::printf("[robustness] train deadline %.0fs x%d attempts, estimate "
              "deadline %.0fs, fallback %s, journal %s%s%s\n",
              options.train_deadline_seconds, options.max_train_attempts,
              options.estimate_deadline_seconds,
              options.fallback.empty() ? "none" : options.fallback.c_str(),
              JournalingEnabled() ? "on" : "off",
              faults != nullptr && faults[0] != '\0' ? ", FAULT PLAN: " : "",
              faults != nullptr ? faults : "");
  std::printf("==============================================================\n");
}

void PrintPaperExpectation(const std::string& text) {
  std::printf("\n[paper expectation] %s\n", text.c_str());
}

std::unique_ptr<CardinalityEstimator> MakeBenchEstimator(
    const std::string& name) {
  return robust::WrapWithFaults(MakeEstimator(name),
                                robust::FaultPlanFromEnv());
}

SweepContext::SweepContext(const std::string& bench_name)
    : bench_name_(bench_name),
      options_(robust::RobustOptionsFromEnv()),
      fault_plan_(robust::FaultPlanFromEnv()),
      journal_(JournalPath(bench_name),
               robust::FingerprintConfig(
                   {kJournalVersion, bench_name,
                    std::to_string(BenchScale()),
                    std::to_string(BenchQueryCount())})) {
  if (journal_.resumed_cells() > 0) {
    std::printf("[resume] %s: %zu completed cell(s) loaded from %s; only "
                "missing or failed cells will run\n",
                bench_name_.c_str(), journal_.resumed_cells(),
                journal_.path().c_str());
  }
}

EstimatorReport SweepContext::EvaluateCell(const std::string& estimator_name,
                                           const Table& table,
                                           const Workload& train,
                                           const Workload& test,
                                           uint64_t seed) {
  if (const robust::JournalRecord* cached =
          journal_.Find(estimator_name, table.name())) {
    EstimatorReport report;
    report.estimator = estimator_name;
    report.dataset = table.name();
    report.served_by = estimator_name;
    report.qerror = {cached->Metric("p50"), cached->Metric("p95"),
                     cached->Metric("p99"), cached->Metric("max")};
    report.train_seconds = cached->Metric("train_s");
    report.avg_inference_ms = cached->Metric("infer_ms");
    report.model_size_bytes =
        static_cast<size_t>(cached->Metric("model_bytes"));
    return report;
  }

  const EstimatorReport report = robust::EvaluateOnDatasetRobust(
      estimator_name,
      [this, &estimator_name] {
        return robust::WrapWithFaults(MakeEstimator(estimator_name),
                                      fault_plan_);
      },
      table, train, test, options_, seed);

  if (report.ok() &&
      !journal_.Append(
          {estimator_name, table.name(), ReportMetrics(report)})) {
    // Accounted, not just printed: a refused or failed append means this
    // run's resume state is lost, so the sweep must exit non-zero (and the
    // cell, still missing from the journal, re-runs on the next attempt).
    std::fprintf(stderr, "[journal] append to %s failed (%s)\n",
                 journal_.path().c_str(),
                 FailureKindName(FailureKind::kPersistenceFailure));
    NoteOutcome(estimator_name, table.name(), false,
                std::string("FAILED ") +
                    FailureKindName(FailureKind::kPersistenceFailure));
  }
  NoteOutcome(estimator_name, table.name(), report.ok(),
              StatusLabel(report));
  return report;
}

SweepContext::CellStatus SweepContext::RunCell(
    const std::string& estimator_name, const std::string& cell_key,
    const std::function<std::vector<std::pair<std::string, double>>()>&
        body) {
  CellStatus status;
  if (const robust::JournalRecord* cached =
          journal_.Find(estimator_name, cell_key)) {
    status.ok = true;
    status.from_journal = true;
    status.metrics = cached->metrics;
    return status;
  }

  // One deadline for the whole cell: its body typically trains and then
  // probes, so it gets both stage budgets.
  const double deadline =
      options_.train_deadline_seconds <= 0 ||
              options_.estimate_deadline_seconds <= 0
          ? 0.0
          : options_.train_deadline_seconds +
                options_.estimate_deadline_seconds;
  auto result =
      std::make_shared<std::vector<std::pair<std::string, double>>>();
  // The closure owns a COPY of `body`: the caller's std::function is a
  // call-site temporary that dies when RunCell returns, but after a
  // timeout the abandoned worker is still executing inside it. (The copied
  // lambda's own captures are the driver's responsibility — see the
  // CellGuard contract in bench_common.h.)
  const robust::GuardResult outcome = robust::RunGuarded(
      [result, body] { *result = body(); }, deadline,
      {FailureKind::kCellTimeout, FailureKind::kCellThrew,
       FailureKind::kCellThrew},
      nullptr, result);

  if (outcome.ok()) {
    status.ok = true;
    status.metrics = *result;
    if (!journal_.Append({estimator_name, cell_key, status.metrics})) {
      std::fprintf(stderr, "[journal] append to %s failed (%s)\n",
                   journal_.path().c_str(),
                   FailureKindName(FailureKind::kPersistenceFailure));
      NoteOutcome(estimator_name, cell_key, false,
                  std::string("FAILED ") +
                      FailureKindName(FailureKind::kPersistenceFailure));
    }
  } else {
    status.failure = std::string(FailureKindName(outcome.kind)) +
                     (outcome.detail.empty() ? "" : ": " + outcome.detail);
  }
  NoteOutcome(estimator_name, cell_key, status.ok, status.failure);
  return status;
}

std::string SweepContext::StatusLabel(const EstimatorReport& report) {
  if (report.ok()) return "";
  std::string label = "FAILED";
  for (const FailureRecord& failure : report.failures)
    label += std::string(" ") + FailureKindName(failure.kind);
  if (!report.served_by.empty() && report.served_by != report.estimator)
    label += "; served by " + report.served_by;
  return label;
}

void SweepContext::NoteOutcome(const std::string& estimator,
                               const std::string& cell, bool ok,
                               const std::string& failure) {
  if (ok) return;
  failed_cells_.push_back(estimator + " x " + cell + ": " +
                          (failure.empty() ? "FAILED" : failure));
}

CellGuard::CellGuard() {
  const robust::RobustOptions options = robust::RobustOptionsFromEnv();
  // One deadline per cell: bodies typically train and then probe, so they
  // get both stage budgets; either knob at 0 disables the watchdog.
  deadline_ = options.train_deadline_seconds <= 0 ||
                      options.estimate_deadline_seconds <= 0
                  ? 0.0
                  : options.train_deadline_seconds +
                        options.estimate_deadline_seconds;
}

bool CellGuard::Run(const std::string& label,
                    const std::function<void()>& body) {
  const robust::GuardResult outcome = robust::RunGuarded(
      body, deadline_,
      {FailureKind::kCellTimeout, FailureKind::kCellThrew,
       FailureKind::kCellThrew});
  if (outcome.ok()) return true;
  const std::string failure =
      std::string(FailureKindName(outcome.kind)) +
      (outcome.detail.empty() ? "" : " (" + outcome.detail + ")");
  std::printf("[robustness] %s FAILED %s\n", label.c_str(), failure.c_str());
  failed_.push_back(label + ": " + failure);
  return false;
}

int CellGuard::Finish() const {
  if (failed_.empty()) {
    ExitNowIfWorkersAbandoned(0);
    return 0;
  }
  std::printf("\n[robustness] %zu cell(s) FAILED:\n", failed_.size());
  for (const std::string& cell : failed_)
    std::printf("  %s\n", cell.c_str());
  ExitNowIfWorkersAbandoned(1);
  return 1;
}

int SweepContext::Finish() {
  if (failed_cells_.empty()) {
    // Clean sweep: nothing to resume. Next run starts fresh. (A clean sweep
    // can still have abandoned workers only when a timed-out attempt was
    // retried successfully — teardown is unsafe all the same.)
    journal_.RemoveFile();
    ExitNowIfWorkersAbandoned(0);
    return 0;
  }
  std::printf("\n[robustness] %zu cell(s) FAILED:\n", failed_cells_.size());
  for (const std::string& cell : failed_cells_)
    std::printf("  %s\n", cell.c_str());
  if (journal_.enabled()) {
    std::printf("[robustness] completed cells are journaled in %s; rerun "
                "this binary to execute only the failed cells\n",
                journal_.path().c_str());
  }
  ExitNowIfWorkersAbandoned(1);
  return 1;
}

}  // namespace arecel::bench
