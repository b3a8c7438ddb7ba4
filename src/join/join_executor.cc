#include "join/join_executor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_set>

#include "scan/block_scan.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace arecel::join {
namespace {

// ---------------------------------------------------------------------------
// Star decomposition, shared by the hash executor and the nested-loop oracle.

struct BuildSide {
  const Table* table = nullptr;
  int table_index = -1;  // into schema.tables(), for prefix lookup.
  int probe_column = 0;  // join column on the probe table.
  int build_column = 0;  // join column on this build table.
  std::vector<Predicate> predicates;
};

struct StarPlan {
  const Table* probe = nullptr;
  int probe_index = -1;
  std::vector<Predicate> probe_predicates;
  std::vector<BuildSide> builds;
};

StarPlan BuildStarPlan(const Schema& schema, const Query& query) {
  ARECEL_CHECK_MSG(!query.tables.empty(), "join query has no tables");
  ARECEL_CHECK_MSG(query.HasValidTableIndices(),
                   "join predicate table index out of range");
  std::unordered_set<std::string> seen;
  for (const std::string& name : query.tables) {
    ARECEL_CHECK_MSG(seen.insert(name).second, "table repeated in join query");
    ARECEL_CHECK_MSG(schema.FindTable(name) != nullptr, name.c_str());
  }
  for (const Predicate& p : query.predicates) {
    const Table& table =
        schema.table(query.tables[static_cast<size_t>(p.table)]);
    ARECEL_CHECK_MSG(p.column >= 0 &&
                         static_cast<size_t>(p.column) < table.num_cols(),
                     "join predicate column out of range");
  }

  StarPlan plan;
  if (query.tables.size() == 1) {
    ARECEL_CHECK_MSG(query.joins.empty(),
                     "single-table join query must have no edges");
    plan.probe = &schema.table(query.tables[0]);
    plan.probe_index = schema.TableIndex(query.tables[0]);
    plan.probe_predicates = query.predicates;
    return plan;
  }

  ARECEL_CHECK_MSG(query.joins.size() == query.tables.size() - 1,
                   "star join requires exactly n-1 edges");
  // The probe (star center) is the table that every edge touches.
  std::string center;
  for (const std::string& candidate :
       {query.joins[0].left_table, query.joins[0].right_table}) {
    bool on_all = true;
    for (const JoinEdge& e : query.joins) {
      if (e.left_table != candidate && e.right_table != candidate) {
        on_all = false;
        break;
      }
    }
    if (on_all) {
      center = candidate;
      break;
    }
  }
  ARECEL_CHECK_MSG(!center.empty(), "join graph is not a star");
  const int center_slot = query.TableIndex(center);
  ARECEL_CHECK_MSG(center_slot >= 0, "star center missing from query tables");
  plan.probe = &schema.table(center);
  plan.probe_index = schema.TableIndex(center);
  plan.probe_predicates = query.TablePredicates(center_slot);

  std::unordered_set<std::string> covered;
  for (const JoinEdge& e : query.joins) {
    const bool center_left = e.left_table == center;
    BuildSide side;
    const std::string& other = center_left ? e.right_table : e.left_table;
    ARECEL_CHECK_MSG(other != center, "self-join edges are unsupported");
    ARECEL_CHECK_MSG(covered.insert(other).second,
                     "table joined by more than one edge");
    const int slot = query.TableIndex(other);
    ARECEL_CHECK_MSG(slot >= 0, other.c_str());
    side.table = &schema.table(other);
    side.table_index = schema.TableIndex(other);
    side.probe_column = center_left ? e.left_column : e.right_column;
    side.build_column = center_left ? e.right_column : e.left_column;
    side.predicates = query.TablePredicates(slot);
    ARECEL_CHECK_MSG(
        side.probe_column >= 0 && static_cast<size_t>(side.probe_column) <
                                      plan.probe->num_cols(),
        "join edge column out of range on probe side");
    ARECEL_CHECK_MSG(
        side.build_column >= 0 && static_cast<size_t>(side.build_column) <
                                      side.table->num_cols(),
        "join edge column out of range on build side");
    plan.builds.push_back(std::move(side));
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Open-addressing key -> multiplicity table over double join keys.

class KeyCountTable {
 public:
  explicit KeyCountTable(size_t expected) {
    size_t cap = 16;
    while (cap < 2 * expected + 1) cap <<= 1;
    keys_.assign(cap, 0);
    counts_.assign(cap, 0);  // count 0 == empty slot.
    mask_ = cap - 1;
  }

  void Add(double v) {
    if (std::isnan(v)) return;  // NaN joins with nothing.
    const uint64_t bits = CanonicalBits(v);
    size_t slot = SplitMix64(bits) & mask_;
    while (counts_[slot] != 0 && keys_[slot] != bits) {
      slot = (slot + 1) & mask_;
    }
    keys_[slot] = bits;
    ++counts_[slot];
    ++size_;
  }

  size_t Lookup(double v) const {
    if (std::isnan(v)) return 0;
    const uint64_t bits = CanonicalBits(v);
    size_t slot = SplitMix64(bits) & mask_;
    while (counts_[slot] != 0) {
      if (keys_[slot] == bits) return counts_[slot];
      slot = (slot + 1) & mask_;
    }
    return 0;
  }

  size_t size() const { return size_; }

 private:
  std::vector<uint64_t> keys_;
  std::vector<size_t> counts_;
  size_t mask_ = 0;
  size_t size_ = 0;  // total multiplicity inserted.
};

// ---------------------------------------------------------------------------
// Predicate-filtered block iteration, delegated to the block-scan engine's
// compiled plan (selection vectors -> code or double kernels).

// Calls fn(row) for every row of `table` that satisfies `preds`.
template <typename Fn>
void ForEachMatch(const Table& table, const scan::CodePrefixes& prefixes,
                  size_t block_size, const std::vector<Predicate>& preds,
                  scan::ScanStats* stats, Fn&& fn) {
  const size_t rows = table.num_rows();
  if (rows == 0) return;
  ARECEL_CHECK(rows <= std::numeric_limits<uint32_t>::max());
  const scan::ScanPlan plan(table, prefixes, preds);
  if (!plan.satisfiable()) return;
  if (plan.unconstrained()) {
    for (uint32_t r = 0; r < rows; ++r) fn(r);
    return;
  }
  std::vector<uint32_t> sel(block_size);
  for (size_t begin = 0; begin < rows; begin += block_size) {
    const size_t end = std::min(rows, begin + block_size);
    const size_t n =
        plan.FilterBlock(static_cast<uint32_t>(begin),
                         static_cast<uint32_t>(end), sel.data(), stats);
    for (size_t i = 0; i < n; ++i) fn(sel[i]);
  }
}

size_t HashJoinCount(const Schema& schema, const Query& query,
                     const std::vector<scan::CodePrefixes>& prefixes,
                     size_t block_size, scan::ScanStats* stats) {
  if (!query.IsSatisfiable()) return 0;
  const StarPlan plan = BuildStarPlan(schema, query);
  if (plan.probe->num_rows() == 0) return 0;
  for (const BuildSide& side : plan.builds) {
    if (side.table->num_rows() == 0) return 0;
  }

  // Build one key -> multiplicity table per dimension.
  std::vector<KeyCountTable> hashes;
  hashes.reserve(plan.builds.size());
  for (const BuildSide& side : plan.builds) {
    KeyCountTable hash(side.table->num_rows());
    const ColumnValues& keys =
        side.table->column(static_cast<size_t>(side.build_column)).values;
    ForEachMatch(*side.table, prefixes[static_cast<size_t>(side.table_index)],
                 block_size, side.predicates, stats,
                 [&](uint32_t r) { hash.Add(keys[r]); });
    if (hash.size() == 0) return 0;  // a dimension filtered to nothing.
    hashes.push_back(std::move(hash));
  }

  // Probe: each matching row contributes the product of its key
  // multiplicities across the build tables.
  std::vector<const ColumnValues*> probe_keys;
  probe_keys.reserve(plan.builds.size());
  for (const BuildSide& side : plan.builds) {
    probe_keys.push_back(
        &plan.probe->column(static_cast<size_t>(side.probe_column)).values);
  }
  size_t total = 0;
  ForEachMatch(*plan.probe, prefixes[static_cast<size_t>(plan.probe_index)],
               block_size, plan.probe_predicates, stats, [&](uint32_t r) {
                 size_t contribution = 1;
                 for (size_t b = 0; b < hashes.size(); ++b) {
                   contribution *= hashes[b].Lookup((*probe_keys[b])[r]);
                   if (contribution == 0) return;
                 }
                 total += contribution;
               });
  return total;
}

}  // namespace

JoinExecutor::JoinExecutor(const Schema& schema, size_t block_size)
    : schema_(&schema), block_size_(block_size) {
  ARECEL_CHECK_MSG(block_size_ > 0, "block size must be positive");
  prefixes_.reserve(schema.num_tables());
  for (const Table& t : schema.tables())
    prefixes_.push_back(scan::BuildCodePrefixes(t));
}

size_t JoinExecutor::Count(const Query& query) const {
  scan::ScanStats local;
  const size_t count =
      HashJoinCount(*schema_, query, prefixes_, block_size_, &local);
  stats_.Merge(local);
  return count;
}

double JoinExecutor::Selectivity(const Query& query) const {
  const double denom = RowsProduct(*schema_, query);
  if (!(denom > 0.0)) return 0.0;
  return static_cast<double>(Count(query)) / denom;
}

std::vector<size_t> JoinExecutor::CountBatch(
    const std::vector<Query>& queries) const {
  std::vector<size_t> counts(queries.size(), 0);
  ParallelFor(0, queries.size(),
              [&](size_t i) { counts[i] = Count(queries[i]); });
  return counts;
}

std::vector<double> JoinExecutor::Label(
    const std::vector<Query>& queries) const {
  std::vector<double> labels(queries.size(), 0.0);
  ParallelFor(0, queries.size(),
              [&](size_t i) { labels[i] = Selectivity(queries[i]); });
  return labels;
}

double JoinExecutor::RowsProduct(const Schema& schema, const Query& query) {
  ARECEL_CHECK_MSG(!query.tables.empty(), "join query has no tables");
  double product = 1.0;
  for (const std::string& name : query.tables) {
    product *= static_cast<double>(schema.table(name).num_rows());
  }
  return product;
}

size_t ExecuteJoinCountNaive(const Schema& schema, const Query& query) {
  if (!query.IsSatisfiable()) return 0;
  const StarPlan plan = BuildStarPlan(schema, query);
  auto row_matches = [](const Table& table,
                        const std::vector<Predicate>& preds, size_t row) {
    for (const Predicate& p : preds) {
      if (!p.Matches(
              table.column(static_cast<size_t>(p.column)).values[row])) {
        return false;
      }
    }
    return true;
  };
  size_t total = 0;
  for (size_t r = 0; r < plan.probe->num_rows(); ++r) {
    if (!row_matches(*plan.probe, plan.probe_predicates, r)) continue;
    size_t contribution = 1;
    for (const BuildSide& side : plan.builds) {
      const double probe_value =
          plan.probe->column(static_cast<size_t>(side.probe_column))
              .values[r];
      size_t matches = 0;
      for (size_t s = 0; s < side.table->num_rows(); ++s) {
        const double build_value =
            side.table->column(static_cast<size_t>(side.build_column))
                .values[s];
        if (build_value == probe_value &&
            row_matches(*side.table, side.predicates, s)) {
          ++matches;
        }
      }
      contribution *= matches;
      if (contribution == 0) break;
    }
    total += contribution;
  }
  return total;
}

}  // namespace arecel::join
