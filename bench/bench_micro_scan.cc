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
// Usage: bench_micro_scan [--smoke] [--out <path>] (bench_report.h). The
// smoke configuration skips the range grid and shrinks the headline and the
// categorical grid.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.h"
#include "data/datasets.h"
#include "scan/block_scan.h"
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

// Adds a cell's timings, a shared-scan cell's kernel and posting-path
// counters, and the count check to `row`.
void AddMeasurement(const Measurement& m, bool shared_scan,
                    const char* speedup_key, bench::JsonRow* row) {
  row->Add("naive_seconds", m.naive_seconds);
  row->Add("block_seconds", m.block_seconds).Add(speedup_key, m.speedup());
  if (shared_scan) {
    row->Add("scanned_blocks", m.stats.scanned_blocks);
    row->Add("dict_kernel_blocks", m.stats.dict_kernel_blocks);
    row->Add("posting_queries", m.stats.posting_queries);
    row->Add("posting_rows", m.stats.posting_rows);
  }
  row->Add("counts_match", m.counts_match);
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
  cell.m = MeasureCell(table, EqualityQueries(table, num_queries, seed + 1),
                       num_queries);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv, "scan");
  const size_t headline_rows = args.smoke ? 20000 : 1000000;
  const size_t headline_queries = args.smoke ? 200 : 10000;
  // 65536 rows still leave every column of the past-budget cell past the
  // code budget, which the categorical grid checks.
  const size_t cat_rows = args.smoke ? 65536 : 262144;

  std::printf("== bench_micro_scan: naive vs. vectorized block scan ==\n");
  std::printf("workers=%d block_size=%zu\n\n", ParallelWorkerCount(),
              scan::kDefaultBlockSize);

  bool all_match = true;

  // ---- rows x predicates x batch grid -----------------------------------
  std::vector<GridCell> grid;
  if (!args.smoke) {
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
  {
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
                     "distinct values; raise the grid's row count\n",
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
  bench::JsonRow headline_row;
  headline_row.Add("rows", headline_rows).Add("queries", headline_queries);
  AddMeasurement(headline, /*shared_scan=*/true, "speedup", &headline_row);
  std::vector<bench::JsonRow> grid_rows(grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    const GridCell& cell = grid[i];
    grid_rows[i].Add("rows", cell.rows).Add("preds", cell.preds);
    grid_rows[i].Add("batch", cell.batch).Add("queries", cell.queries);
    AddMeasurement(cell.m, cell.batch > 1, "speedup", &grid_rows[i]);
  }
  std::vector<bench::JsonRow> catgrid_rows(catgrid.size());
  for (size_t i = 0; i < catgrid.size(); ++i) {
    const CatCell& cell = catgrid[i];
    catgrid_rows[i].Add("rows", cell.rows);
    catgrid_rows[i].Add("cardinality", cell.cardinality);
    catgrid_rows[i].Add("min_domain_size", cell.min_domain);
    catgrid_rows[i].Add("max_domain_size", cell.max_domain);
    catgrid_rows[i].Add("queries", cell.queries);
    AddMeasurement(cell.m, /*shared_scan=*/true, "speedup_vs_naive",
                   &catgrid_rows[i]);
  }
  bench::BenchReport report("bench_micro_scan");
  report.Add("block_size", scan::kDefaultBlockSize);
  report.Add("headline", headline_row).Add("grid", grid_rows);
  report.Add("categorical_grid", catgrid_rows);
  std::printf("\n");
  if (!report.WriteTo(args.out)) return 1;

  if (!all_match) {
    std::fprintf(stderr,
                 "FAILED: block-scan counts diverged from the naive "
                 "executor\n");
    return 1;
  }
  return 0;
}
