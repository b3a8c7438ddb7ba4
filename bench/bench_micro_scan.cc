// Micro-benchmark of the vectorized block-scan execution engine
// (src/scan/) against the naive per-query reference executor, across a
// rows x predicates x batch-size grid plus a batch-labeling headline at
// paper scale (10K queries x 1M rows by default), plus an equality-heavy
// categorical grid of Zipf columns: three cardinalities within the 4096-code
// budget (posting path and code kernels) and one past it (double kernels).
// The shared-scan cells report the block scan's kernel counters and how many
// queries the posting path answered.
// Every measured cell also checks count equality, so the bench doubles as
// a coarse differential gate. Emits
// machine-readable BENCH_scan.json (default at the repo root) to seed the
// perf trajectory: later PRs compare against it to detect scan-path
// regressions.
//
// Usage: bench_micro_scan [--out <path>]
//
// Environment knobs (all optional):
//   ARECEL_SCAN_BENCH_ROWS     headline table rows        (default 1000000)
//   ARECEL_SCAN_BENCH_QUERIES  headline batch size        (default 10000)
//   ARECEL_SCAN_BENCH_GRID     0 skips the range grid     (default 1)
//   ARECEL_SCAN_BENCH_CATGRID  0 skips the categorical grid (default 1)
//   ARECEL_SCAN_BENCH_CATROWS  categorical grid rows      (default 262144)
//   ARECEL_SCAN_BENCH_OUT      output JSON path (default <repo>/BENCH_scan.json;
//                              the --out flag wins over the env var)

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "scan/block_scan.h"
#include "util/env.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/generator.h"
#include "workload/query.h"

namespace {

using namespace arecel;

Table MakeCensusLike(size_t rows, uint64_t seed) {
  DatasetSpec spec = CensusSpec();
  spec.rows = rows;
  return GenerateDataset(spec, seed);
}

// The pre-engine labeling path: one full naive scan per query,
// parallelized over queries exactly as the old LabelQueries was.
std::vector<size_t> NaiveCounts(const Table& table,
                                const std::vector<Query>& queries) {
  std::vector<size_t> counts(queries.size(), 0);
  ParallelFor(0, queries.size(), [&](size_t i) {
    counts[i] = ExecuteCountNaive(table, queries[i]);
  });
  return counts;
}

struct Measurement {
  double naive_seconds = 0.0;
  double block_seconds = 0.0;
  bool counts_match = false;
  scan::ScanStats stats;  // shared-scan cells only (batch > 1).

  double speedup() const {
    return block_seconds > 0.0 ? naive_seconds / block_seconds : 0.0;
  }
};

// Times naive-vs-block over `queries`, labeling `batch` queries per engine
// call (batch == 1 exercises the single-query ExecuteCount path, larger
// batches the shared scan).
Measurement MeasureCell(const Table& table, const std::vector<Query>& queries,
                        size_t batch) {
  Measurement m;
  Timer timer;
  const std::vector<size_t> naive = NaiveCounts(table, queries);
  m.naive_seconds = timer.ElapsedSeconds();

  std::vector<size_t> block(queries.size(), 0);
  if (batch <= 1) {
    timer.Reset();
    for (size_t i = 0; i < queries.size(); ++i)
      block[i] = ExecuteCount(table, queries[i]);
    m.block_seconds = timer.ElapsedSeconds();
  } else {
    const scan::BlockScanner scanner(table);
    timer.Reset();
    for (size_t begin = 0; begin < queries.size(); begin += batch) {
      const size_t end = std::min(queries.size(), begin + batch);
      const std::vector<Query> slice(queries.begin() + begin,
                                     queries.begin() + end);
      const std::vector<size_t> counts = scanner.CountBatch(slice);
      for (size_t i = 0; i < counts.size(); ++i) block[begin + i] = counts[i];
    }
    m.block_seconds = timer.ElapsedSeconds();
    m.stats = scanner.stats();
  }
  m.counts_match = block == naive;
  return m;
}

struct GridCell {
  size_t rows = 0;
  int preds = 0;
  size_t batch = 0;
  size_t queries = 0;
  Measurement m;
};

// JSON fields of a shared-scan cell's kernel and posting-path counters.
void PrintScanStats(std::FILE* out, const Measurement& m) {
  std::fprintf(out,
               "\"scanned_blocks\": %" PRIu64
               ", \"dict_kernel_blocks\": %" PRIu64
               ", \"posting_queries\": %" PRIu64
               ", \"posting_rows\": %" PRIu64,
               m.stats.scanned_blocks, m.stats.dict_kernel_blocks,
               m.stats.posting_queries, m.stats.posting_rows);
}

// ---- categorical equality grid -------------------------------------------

// Zipf columns — the paper's dominant Census/DMV predicate shape.
Table MakeCategoricalZipf(size_t rows, size_t cols, size_t cardinality,
                          uint64_t seed) {
  Rng rng(seed);
  const ZipfSampler zipf(cardinality, 1.1);
  Table t("catzipf");
  for (size_t c = 0; c < cols; ++c) {
    std::vector<double> vals(rows);
    for (double& v : vals) v = static_cast<double>(zipf.Sample(rng));
    t.AddColumn("cat" + std::to_string(c), std::move(vals), true);
  }
  return t;
}

// Equality-heavy workload: mostly point predicates on uniformly drawn
// domain values (rare values dominate), with a few narrow ranges mixed in.
std::vector<Query> EqualityQueries(const Table& table, size_t count,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> queries(count);
  for (Query& q : queries) {
    const size_t preds = 1 + rng.UniformInt(uint64_t{2});
    for (size_t i = 0; i < preds; ++i) {
      const int col =
          static_cast<int>(rng.UniformInt(uint64_t{table.num_cols()}));
      const Column& column = table.column(static_cast<size_t>(col));
      const double a =
          column.domain[rng.UniformInt(uint64_t{column.domain.size()})];
      if (rng.Bernoulli(0.8)) {
        q.predicates.push_back({col, a, a});
      } else {
        const double b =
            column.domain[rng.UniformInt(uint64_t{column.domain.size()})];
        q.predicates.push_back({col, std::min(a, b), std::max(a, b)});
      }
    }
  }
  return queries;
}

// Cardinalities of the categorical grid. The last one puts every column
// past the code budget (checked on the generated domains), so the grid
// also measures the double kernels.
constexpr size_t kPastBudgetCardinality = 16384;
constexpr size_t kCatCardinalities[] = {16, 64, 1024, kPastBudgetCardinality};

struct CatCell {
  size_t rows = 0;
  size_t cardinality = 0;
  size_t min_domain = 0;  // smallest column domain.
  size_t max_domain = 0;  // largest column domain.
  size_t queries = 0;
  Measurement m;
};

CatCell MeasureCatCell(size_t rows, size_t cardinality, size_t num_queries,
                       uint64_t seed) {
  CatCell cell;
  cell.rows = rows;
  cell.cardinality = cardinality;
  cell.queries = num_queries;
  const Table table = MakeCategoricalZipf(rows, /*cols=*/4, cardinality, seed);
  cell.min_domain = table.column(0).domain_size();
  for (const Column& column : table.columns()) {
    cell.min_domain = std::min(cell.min_domain, column.domain_size());
    cell.max_domain = std::max(cell.max_domain, column.domain_size());
  }
  const std::vector<Query> queries =
      EqualityQueries(table, num_queries, seed + 1);

  Timer timer;
  const std::vector<size_t> naive = NaiveCounts(table, queries);
  cell.m.naive_seconds = timer.ElapsedSeconds();

  const scan::BlockScanner scanner(table);
  timer.Reset();
  const std::vector<size_t> counts = scanner.CountBatch(queries);
  cell.m.block_seconds = timer.ElapsedSeconds();
  cell.m.stats = scanner.stats();
  cell.m.counts_match = counts == naive;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t headline_rows = EnvSize("ARECEL_SCAN_BENCH_ROWS", 1000000);
  const size_t headline_queries =
      EnvSize("ARECEL_SCAN_BENCH_QUERIES", 10000);
  const bool run_grid = EnvSize("ARECEL_SCAN_BENCH_GRID", 1) != 0;
  const bool run_catgrid = EnvSize("ARECEL_SCAN_BENCH_CATGRID", 1) != 0;
  const size_t cat_rows = EnvSize("ARECEL_SCAN_BENCH_CATROWS", 262144);
  std::string out_path = ARECEL_REPO_ROOT "/BENCH_scan.json";
  if (const char* env_out = std::getenv("ARECEL_SCAN_BENCH_OUT"))
    out_path = env_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::fprintf(stderr, "usage: bench_micro_scan [--out <path>]\n");
      return 2;
    }
  }

  std::printf("== bench_micro_scan: naive vs. vectorized block scan ==\n");
  std::printf("workers=%d block_size=%zu\n\n", ParallelWorkerCount(),
              scan::kDefaultBlockSize);

  bool all_match = true;

  // ---- rows x predicates x batch grid -----------------------------------
  std::vector<GridCell> grid;
  if (run_grid) {
    std::printf("%8s %6s %6s %8s %12s %12s %9s %8s %s\n", "rows", "preds",
                "batch", "queries", "naive_s", "block_s", "speedup",
                "posting", "match");
    const size_t grid_queries = 128;
    for (size_t rows : {16384u, 131072u}) {
      const Table table = MakeCensusLike(rows, /*seed=*/101);
      for (int preds : {1, 2, 4}) {
        WorkloadOptions options;
        options.min_predicates = preds;
        options.max_predicates = preds;
        const std::vector<Query> queries = GenerateQueries(
            table, grid_queries, /*seed=*/202 + static_cast<uint64_t>(preds),
            options);
        for (size_t batch : {1u, 16u, 128u}) {
          GridCell cell;
          cell.rows = rows;
          cell.preds = preds;
          cell.batch = batch;
          cell.queries = grid_queries;
          cell.m = MeasureCell(table, queries, batch);
          all_match = all_match && cell.m.counts_match;
          std::printf("%8zu %6d %6zu %8zu %12.4f %12.4f %8.1fx %8" PRIu64
                      " %s\n",
                      cell.rows, cell.preds, cell.batch, cell.queries,
                      cell.m.naive_seconds, cell.m.block_seconds,
                      cell.m.speedup(), cell.m.stats.posting_queries,
                      cell.m.counts_match ? "ok" : "MISMATCH");
          grid.push_back(cell);
        }
      }
    }
    std::printf("\n");
  }

  // ---- categorical equality grid ----------------------------------------
  std::vector<CatCell> catgrid;
  if (run_catgrid) {
    std::printf(
        "categorical grid: equality-heavy Zipf workloads, naive vs engine "
        "(code budget %zu)\n",
        scan::kMaxDictCodes);
    std::printf("%8s %6s %11s %8s %10s %10s %9s %8s %s\n", "rows", "card",
                "domains", "queries", "naive_s", "block_s", "speedup",
                "posting", "match");
    for (size_t cardinality : kCatCardinalities) {
      const CatCell cell = MeasureCatCell(
          cat_rows, cardinality, /*num_queries=*/256,
          /*seed=*/301 + cardinality);
      all_match = all_match && cell.m.counts_match;
      const std::string domains = std::to_string(cell.min_domain) + "-" +
                                  std::to_string(cell.max_domain);
      std::printf("%8zu %6zu %11s %8zu %10.4f %10.4f %8.1fx %8" PRIu64
                  " %s\n",
                  cell.rows, cell.cardinality, domains.c_str(), cell.queries,
                  cell.m.naive_seconds, cell.m.block_seconds,
                  cell.m.speedup(), cell.m.stats.posting_queries,
                  cell.m.counts_match ? "ok" : "MISMATCH");
      if (cardinality == kPastBudgetCardinality &&
          cell.min_domain <= scan::kMaxDictCodes) {
        std::fprintf(stderr,
                     "FAILED: cardinality %zu left a column with %zu <= %zu "
                     "distinct values; raise ARECEL_SCAN_BENCH_CATROWS\n",
                     cardinality, cell.min_domain, scan::kMaxDictCodes);
        return 1;
      }
      catgrid.push_back(cell);
    }
    scan::ScanStats total;
    for (const CatCell& cell : catgrid) total.Add(cell.m.stats);
    std::printf("engine counters: scanned=%" PRIu64 " dict_kernel=%" PRIu64
                " posting_queries=%" PRIu64 " posting_rows=%" PRIu64 "\n\n",
                total.scanned_blocks, total.dict_kernel_blocks,
                total.posting_queries, total.posting_rows);
  }

  // ---- batch-labeling headline ------------------------------------------
  std::printf("headline: labeling %zu queries over %zu rows...\n",
              headline_queries, headline_rows);
  const Table table = MakeCensusLike(headline_rows, /*seed=*/11);
  const std::vector<Query> queries =
      GenerateQueries(table, headline_queries, /*seed=*/12);
  const Measurement headline =
      MeasureCell(table, queries, headline_queries);
  all_match = all_match && headline.counts_match;
  std::printf("naive  %.3f s\nblock  %.3f s\nspeedup %.1fx (%s)\n",
              headline.naive_seconds, headline.block_seconds,
              headline.speedup(), headline.counts_match ? "ok" : "MISMATCH");
  std::printf("posting path: %" PRIu64 " of %zu queries, %" PRIu64
              " slice row ids; block scan: %" PRIu64 " blocks scanned\n",
              headline.stats.posting_queries, headline_queries,
              headline.stats.posting_rows, headline.stats.scanned_blocks);

  // ---- machine-readable artifact ----------------------------------------
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"bench_micro_scan\",\n");
  std::fprintf(out, "  \"block_size\": %zu,\n", scan::kDefaultBlockSize);
  std::fprintf(out, "  \"workers\": %d,\n", ParallelWorkerCount());
  std::fprintf(out, "  \"headline\": {\"rows\": %zu, \"queries\": %zu, "
                    "\"naive_seconds\": %.6f, \"block_seconds\": %.6f, "
                    "\"speedup\": %.3f, ",
               headline_rows, headline_queries, headline.naive_seconds,
               headline.block_seconds, headline.speedup());
  PrintScanStats(out, headline);
  std::fprintf(out, ", \"counts_match\": %s},\n",
               headline.counts_match ? "true" : "false");
  std::fprintf(out, "  \"grid\": [");
  for (size_t i = 0; i < grid.size(); ++i) {
    const GridCell& cell = grid[i];
    std::fprintf(out,
                 "%s\n    {\"rows\": %zu, \"preds\": %d, \"batch\": %zu, "
                 "\"queries\": %zu, \"naive_seconds\": %.6f, "
                 "\"block_seconds\": %.6f, \"speedup\": %.3f, ",
                 i == 0 ? "" : ",", cell.rows, cell.preds, cell.batch,
                 cell.queries, cell.m.naive_seconds, cell.m.block_seconds,
                 cell.m.speedup());
    if (cell.batch > 1) {
      PrintScanStats(out, cell.m);
      std::fprintf(out, ", ");
    }
    std::fprintf(out, "\"counts_match\": %s}",
                 cell.m.counts_match ? "true" : "false");
  }
  std::fprintf(out, "\n  ],\n");
  std::fprintf(out, "  \"categorical_grid\": [");
  for (size_t i = 0; i < catgrid.size(); ++i) {
    const CatCell& cell = catgrid[i];
    std::fprintf(
        out,
        "%s\n    {\"rows\": %zu, \"cardinality\": %zu, "
        "\"min_domain_size\": %zu, \"max_domain_size\": %zu, "
        "\"queries\": %zu, \"naive_seconds\": %.6f, "
        "\"block_seconds\": %.6f, \"speedup_vs_naive\": %.3f, ",
        i == 0 ? "" : ",", cell.rows, cell.cardinality, cell.min_domain,
        cell.max_domain, cell.queries, cell.m.naive_seconds,
        cell.m.block_seconds, cell.m.speedup());
    PrintScanStats(out, cell.m);
    std::fprintf(out, ", \"counts_match\": %s}",
                 cell.m.counts_match ? "true" : "false");
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!all_match) {
    std::fprintf(stderr,
                 "FAILED: block-scan counts diverged from the naive "
                 "executor\n");
    return 1;
  }
  return 0;
}
