// Serving-layer contract tests (src/serve/): cache canonicalization and
// key bytes, single-flight cold loads, CLOCK eviction order, exact batch
// accounting, the per-request deadline's failure taxonomy, post-update
// invalidation + stale-while-revalidate refresh equivalence, and
// concurrent cache and server smokes designed for the TSan preset
// (scripts/run_sanitized_tests.sh matches these suites by the "Serve" in
// their names).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "core/model_io.h"
#include "core/registry.h"
#include "data/datasets.h"
#include "serve/cache.h"
#include "serve/model_manager.h"
#include "serve/server.h"
#include "store/model_store.h"
#include "util/archive.h"
#include "workload/generator.h"

namespace arecel::serve {
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

// Test double whose train and estimate latencies are programmable; used to
// force single-flight overlap and deadline expiry deterministically.
class StubEstimator : public CardinalityEstimator {
 public:
  StubEstimator(double train_ms, double estimate_ms, bool thread_safe)
      : train_ms_(train_ms),
        estimate_ms_(estimate_ms),
        thread_safe_(thread_safe) {}

  std::string Name() const override { return "stub"; }

  void Train(const Table& table, const TrainContext& context) override {
    (void)table;
    (void)context;
    if (train_ms_ > 0)
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<int64_t>(train_ms_ * 1000)));
  }

  double EstimateSelectivity(const Query& query) const override {
    (void)query;
    if (estimate_ms_ > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(estimate_ms_ * 1000)));
    return 0.25;
  }

  size_t SizeBytes() const override { return 8; }
  bool ThreadSafeEstimates() const override { return thread_safe_; }

 private:
  double train_ms_;
  double estimate_ms_;
  bool thread_safe_;
};

ServeEstimatorFactory StubFactory(double train_ms, double estimate_ms,
                                  bool thread_safe = true) {
  return [=](const std::string&) {
    return std::make_unique<StubEstimator>(train_ms, estimate_ms,
                                           thread_safe);
  };
}

// ---------------------------------------------------------------------------
// Cache key canonicalization.

TEST(ServeCacheKeyTest, PredicateOrderDoesNotChangeTheKey) {
  const Query a = MakeQuery({{2, 1.0, 5.0}, {0, 3.0, 3.0}, {7, -4.0, 9.0}});
  const Query b = MakeQuery({{0, 3.0, 3.0}, {7, -4.0, 9.0}, {2, 1.0, 5.0}});
  EXPECT_EQ(CanonicalPredicateKey(a), CanonicalPredicateKey(b));
}

TEST(ServeCacheKeyTest, NegativeZeroBoundsCollapse) {
  const Query a = MakeQuery({{1, -0.0, 2.0}});
  const Query b = MakeQuery({{1, 0.0, 2.0}});
  EXPECT_EQ(CanonicalPredicateKey(a), CanonicalPredicateKey(b));
}

// NaN bounds reach CanonicalPredicateKey from callers other than the
// server, which refuses them. The key must still not depend on predicate
// order: NaN sorts after every number, NaNs by their bits.
TEST(ServeCacheKeyTest, NaNBoundsKeyAlikeInEveryOrder) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double other_nan = std::nan("7");
  std::vector<Predicate> predicates;
  const double bounds[] = {nan, 1.0, -0.0, other_nan, 0.0, -inf, -nan, 3.5};
  for (int i = 0; i < 20; ++i) {
    predicates.push_back({i % 3, bounds[i % 8], bounds[(i * 5 + 3) % 8]});
  }
  const std::string key = CanonicalPredicateKey(MakeQuery(predicates));
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 2000; ++trial) {
    std::shuffle(predicates.begin(), predicates.end(), rng);
    ASSERT_EQ(CanonicalPredicateKey(MakeQuery(predicates)), key)
        << "permutation " << trial;
  }
}

TEST(ServeCacheKeyTest, DifferentBoundsColumnsVersionsDiffer) {
  const Query base = MakeQuery({{1, 2.0, 8.0}});
  EXPECT_NE(CanonicalPredicateKey(base),
            CanonicalPredicateKey(MakeQuery({{1, 2.0, 9.0}})));
  EXPECT_NE(CanonicalPredicateKey(base),
            CanonicalPredicateKey(MakeQuery({{2, 2.0, 8.0}})));
  // Same predicates, bumped data version: distinct entries by construction.
  EXPECT_NE(EstimateCacheKey("t", "e", 0, base),
            EstimateCacheKey("t", "e", 1, base));
  // Dataset prefix is shared, so invalidation can address all of "t".
  const std::string key = EstimateCacheKey("t", "e", 0, base);
  EXPECT_EQ(key.compare(0, DatasetKeyPrefix("t").size(),
                        DatasetKeyPrefix("t")),
            0);
}

// Duplicate predicates on one column must NOT be merged: estimators answer
// the literal conjunct list, and the cache contract is bit-identical
// replay of what was served.
TEST(ServeCacheKeyTest, DuplicateColumnsAreNotMerged) {
  const Query twice = MakeQuery({{1, 2.0, 8.0}, {1, 3.0, 9.0}});
  const Query merged = MakeQuery({{1, 3.0, 8.0}});
  EXPECT_NE(CanonicalPredicateKey(twice), CanonicalPredicateKey(merged));
}

// Regression for the single-vs-join fingerprint aliasing: a single-table
// query and a join query carrying the identical predicate list must never
// share a cache key — the table-set prefix (count + names) keeps the two
// keyspaces disjoint by construction.
TEST(ServeCacheKeyTest, SingleTableAndJoinKeysNeverCollide) {
  const std::vector<Predicate> predicates = {{0, 2.0, 8.0}, {1, 3.0, 3.0}};
  const Query single = MakeQuery(predicates);

  Query one_table = MakeQuery(predicates);
  one_table.tables = {"fact"};
  EXPECT_NE(CanonicalPredicateKey(single), CanonicalPredicateKey(one_table));
  EXPECT_NE(EstimateCacheKey("d", "e", 0, single),
            EstimateCacheKey("d", "e", 0, one_table));

  Query star = one_table;
  star.tables.push_back("dim0");
  star.joins.push_back({"fact", 0, "dim0", 0});
  EXPECT_NE(CanonicalPredicateKey(single), CanonicalPredicateKey(star));
  // And the two join shapes differ from each other: table set is part of
  // the fingerprint.
  EXPECT_NE(CanonicalPredicateKey(one_table), CanonicalPredicateKey(star));
}

// The join fingerprint canonicalizes table order, per-table predicate
// order, and edge orientation — the equivalence classes a planner-issued
// repeat of the same semantic query falls into.
TEST(ServeCacheKeyTest, JoinKeyIsCanonicalOverOrderAndOrientation) {
  Query a;
  a.tables = {"fact", "dim0"};
  a.predicates = {{0, 1.0, 5.0, 0}, {2, 3.0, 4.0, 0}, {1, 2.0, 2.0, 1}};
  a.joins.push_back({"fact", 0, "dim0", 0});

  Query b;
  b.tables = {"dim0", "fact"};
  b.predicates = {{1, 2.0, 2.0, 0}, {2, 3.0, 4.0, 1}, {0, 1.0, 5.0, 1}};
  b.joins.push_back({"dim0", 0, "fact", 0});  // reversed edge orientation.
  EXPECT_EQ(CanonicalPredicateKey(a), CanonicalPredicateKey(b));

  // A different edge is a different key even with identical tables.
  Query c = a;
  c.joins[0].right_column = 1;
  EXPECT_NE(CanonicalPredicateKey(a), CanonicalPredicateKey(c));
}

// The exact bytes of one two-predicate key (little-endian words): dataset
// and estimator each ended by '\x1f', the 8-byte data version, the one
// anonymous table's prefix (count 1, empty name), then the predicates
// sorted by column as (int32 column, lo bits, hi bits), -0.0 keyed as 0.0.
TEST(ServeCacheKeyTest, TwoPredicateKeyHasPinnedBytes) {
  const Query query = MakeQuery({{1, 2.0, 8.0}, {0, -0.0, 3.5}});
  const std::string expected(
      "d\x1f"
      "e\x1f"
      "\x07\x00\x00\x00\x00\x00\x00\x00"  // version 7
      "\x01\x00\x00\x00\x1f"  // one table
      "\x00\x00\x00\x00"  // column 0
      "\x00\x00\x00\x00\x00\x00\x00\x00"  // lo 0.0
      "\x00\x00\x00\x00\x00\x00\x0c\x40"  // hi 3.5
      "\x01\x00\x00\x00"  // column 1
      "\x00\x00\x00\x00\x00\x00\x00\x40"  // lo 2.0
      "\x00\x00\x00\x00\x00\x00\x20\x40",  // hi 8.0
      2 + 2 + 8 + 5 + 2 * 20);
  EXPECT_EQ(EstimateCacheKey("d", "e", 7, query), expected);
  CacheKeyBuffer buffer;
  buffer.Build("d", "e", 7, query);
  EXPECT_EQ(buffer.view(), expected);
}

// A single-table key as the format defines it, built the slow way: copy
// the predicates, sort them by (column, lo, hi) with every NaN after every
// number and NaNs by their bits, append each field.
std::string ReferenceSingleTableKey(const std::string& dataset,
                                    const std::string& estimator,
                                    uint64_t version, const Query& query) {
  const auto bits = [](double v) {
    if (v == 0.0) v = 0.0;
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  const auto less = [&](double a, double b) {
    if (std::isnan(a) || std::isnan(b))
      return std::isnan(a) && std::isnan(b) ? bits(a) < bits(b)
                                            : std::isnan(b);
    return a < b;
  };
  std::vector<Predicate> sorted = query.predicates;
  std::sort(sorted.begin(), sorted.end(),
            [&](const Predicate& a, const Predicate& b) {
              if (a.column != b.column) return a.column < b.column;
              if (less(a.lo, b.lo)) return true;
              if (less(b.lo, a.lo)) return false;
              return less(a.hi, b.hi);
            });
  std::string key = dataset + '\x1f' + estimator + '\x1f';
  const auto append = [&key](const auto& value) {
    key.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  append(version);
  append(uint32_t{1});
  key += '\x1f';
  for (const Predicate& p : sorted) {
    append(static_cast<int32_t>(p.column));
    append(bits(p.lo));
    append(bits(p.hi));
  }
  return key;
}

// The buffer a server builds on its stack holds EstimateCacheKey's bytes
// for every query shape: NaN and signed-zero bounds, repeated columns,
// more than 32 predicates, keys longer than the inline bytes, join
// queries, and one buffer reused across all of them.
// Single-table keys also match the slow reference above.
TEST(ServeCacheKeyTest, BufferBuilderMatchesEstimateCacheKey) {
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {-0.0, 0.0, std::nan(""), std::nan("7"),
                             -inf, inf, 1.5, -2.25};
  std::mt19937_64 rng(23);
  const auto bound = [&] {
    return rng() % 3 == 0 ? specials[rng() % 8]
                          : static_cast<double>(rng() % 2001) / 8 - 125;
  };
  const std::string names[] = {"fact", "dim0", "dim1", "dim2"};
  CacheKeyBuffer buffer;
  size_t longest = 0;
  for (int trial = 0; trial < 600; ++trial) {
    Query query;
    const bool join = trial % 3 == 0;
    if (join) {
      const size_t tables = 1 + rng() % 4;
      query.tables.assign(names, names + tables);
      std::shuffle(query.tables.begin(), query.tables.end(), rng);
      for (size_t t = 1; t < tables; ++t)
        query.joins.push_back({query.tables[rng() % t],
                               static_cast<int>(rng() % 3), query.tables[t],
                               static_cast<int>(rng() % 3)});
    }
    // Odd trials draw distinct columns, the rest may repeat them.
    std::vector<int> columns(70);
    std::iota(columns.begin(), columns.end(), 0);
    std::shuffle(columns.begin(), columns.end(), rng);
    const size_t predicates = trial % 5 == 0 ? 33 + rng() % 30 : rng() % 12;
    for (size_t i = 0; i < predicates; ++i) {
      const int column =
          trial % 2 == 1 ? columns[i] : static_cast<int>(rng() % 13);
      Predicate p{column, bound(), bound()};
      if (join) p.table = static_cast<int>(rng() % query.tables.size());
      query.predicates.push_back(p);
    }
    const uint64_t version = rng() % 5;
    const std::string expected =
        EstimateCacheKey("census", "mscn", version, query);
    if (!join) {
      ASSERT_EQ(expected,
                ReferenceSingleTableKey("census", "mscn", version, query))
          << "trial " << trial;
    }
    buffer.Build("census", "mscn", version, query);
    ASSERT_EQ(buffer.view(), expected) << "trial " << trial;
    longest = std::max(longest, expected.size());
  }
  EXPECT_GT(longest, CacheKeyBuffer::kInlineBytes);
}

// Predicates over distinct columns are placed by rank, up to 32 of them;
// more, or a repeated column, fall back to a sort. Both sides of each
// boundary key as the comparator orders them: 0, 1, 2, 31, 32, 33 and 64
// predicates, in ascending, descending and shuffled order, over columns
// that include negatives, INT_MIN and INT_MAX; then the same sizes (from
// 2 up) with one column repeated, its two predicates' bounds drawn from
// +/-0.0, NaNs and a number.
TEST(ServeCacheKeyTest, RankPlacementMatchesTheComparator) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double repeated_bounds[] = {-0.0, 0.0, nan, std::nan("7"), 2.5};
  std::mt19937_64 rng(29);
  // INT_MIN, INT_MAX, then negatives and non-negatives in turn.
  std::vector<int> distinct = {INT_MIN, INT_MAX};
  for (int i = 0; distinct.size() < 64; ++i)
    distinct.push_back(i % 2 == 0 ? -1 - i / 2 : i / 2);
  CacheKeyBuffer buffer;
  const auto expect_keys_agree = [&](const Query& query,
                                     const std::string& label) {
    const std::string expected = EstimateCacheKey("census", "mscn", 3, query);
    ASSERT_EQ(expected, ReferenceSingleTableKey("census", "mscn", 3, query))
        << label;
    buffer.Build("census", "mscn", 3, query);
    ASSERT_EQ(buffer.view(), expected) << label;
  };
  for (const size_t n : {0, 1, 2, 31, 32, 33, 64}) {
    std::vector<int> columns(distinct.begin(), distinct.begin() + n);
    std::sort(columns.begin(), columns.end());
    for (const char* order : {"ascending", "descending", "shuffled"}) {
      std::vector<int> ordered = columns;
      if (order[0] == 'd') std::reverse(ordered.begin(), ordered.end());
      if (order[0] == 's') std::shuffle(ordered.begin(), ordered.end(), rng);
      Query query;
      for (const int column : ordered)
        query.predicates.push_back({column, static_cast<double>(rng() % 50),
                                    static_cast<double>(50 + rng() % 50)});
      const std::string label = std::to_string(n) + " " + order;
      ASSERT_NO_FATAL_FAILURE(expect_keys_agree(query, label));
      if (n < 2) continue;
      // One column twice: the first predicate's column on another one.
      const size_t copy = 1 + rng() % (n - 1);
      query.predicates[copy].column = query.predicates[0].column;
      for (const double lo0 : repeated_bounds) {
        for (const double lo1 : repeated_bounds) {
          query.predicates[0].lo = lo0;
          query.predicates[copy].lo = lo1;
          query.predicates[0].hi = repeated_bounds[rng() % 5];
          query.predicates[copy].hi = repeated_bounds[rng() % 5];
          ASSERT_NO_FATAL_FAILURE(
              expect_keys_agree(query, label + " repeated"));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The shard index under long runs of operations.

// One shard under 20 000 seeded operations, checked against a std::map:
// inserts of new keys, overwrites, lookups, erasures of present and of
// missing keys, invalidations of three dataset prefixes, and clears, on
// keys of 1-400 bytes. Every 100 operations each key ever inserted is
// looked up. With room for every key, each must hit or miss as the map
// says; when the capacity makes CLOCK evict, a hit must still return the
// map's latest value, and a key the map dropped must miss. The shard's
// entries and bytes must be the sums over the keys that hit. The other
// cache tests hold about ten entries per shard, so they never reach long
// probe runs, wrap-around at the index's end or backward shifts. The check
// runs every 100 operations, not every 1000: when evicting, an entry that
// a faulty erasure cuts off from its probe run shows only in the totals,
// and only until the hand evicts it.
TEST(ServeCacheIndexTest, RandomOperationsMatchAReferenceMap) {
  const std::string prefixes[] = {DatasetKeyPrefix("census"),
                                  DatasetKeyPrefix("dmv"),
                                  DatasetKeyPrefix("forest")};
  std::mt19937_64 rng(91);
  // Keys of 8 bytes or more start with a dataset prefix.
  std::vector<std::string> universe;
  std::set<std::string> drawn;
  while (universe.size() < 4000) {
    const size_t size = 1 + rng() % 400;
    std::string key = size < 8 ? "" : prefixes[rng() % 3];
    while (key.size() < size) key += static_cast<char>(rng());
    if (drawn.insert(key).second) universe.push_back(key);
  }

  for (const bool evicts : {false, true}) {
    SCOPED_TRACE(evicts ? "evicting" : "room for every key");
    // About 130 entries of the mean key when evicting.
    EstimateCache cache(evicts ? 40000 : size_t{1} << 30, /*num_shards=*/1);
    std::map<std::string, double> reference;
    std::set<std::string> inserted;
    // A key the map holds (`held`) or does not; null if none turned up.
    const auto pick = [&](bool held) -> const std::string* {
      for (int tries = 0; tries < 100; ++tries) {
        const std::string& key = universe[rng() % universe.size()];
        if (reference.contains(key) == held) return &key;
      }
      return nullptr;
    };
    const auto expect_lookup = [&](const std::string& key, bool* hit) {
      double got = 0.0;
      *hit = cache.Lookup(key, &got);
      const auto it = reference.find(key);
      if (*hit) {
        ASSERT_NE(it, reference.end()) << "a dropped key hit";
        ASSERT_EQ(got, it->second);
      } else if (!evicts) {
        ASSERT_EQ(it, reference.end()) << "a cached key missed";
      }
    };
    for (int op = 1; op <= 20000; ++op) {
      const double value = op;  // every write is a new value.
      // Per 10 000: 3500 inserts of new keys, 1000 overwrites, 3000
      // lookups, 1000 erasures, 1490 erasures of missing keys, 8 prefix
      // invalidations and 2 clears.
      const uint64_t dice = rng() % 10000;
      if (dice < 3500) {
        if (const std::string* key = pick(false)) {
          cache.Insert(*key, value);
          reference[*key] = value;
          inserted.insert(*key);
        }
      } else if (dice < 4500) {
        if (const std::string* key = pick(true)) {
          cache.Insert(*key, value);
          reference[*key] = value;
        }
      } else if (dice < 7500) {
        bool hit = false;
        ASSERT_NO_FATAL_FAILURE(
            expect_lookup(universe[rng() % universe.size()], &hit))
            << "op " << op;
      } else if (dice < 8500) {
        if (const std::string* key = pick(true)) {
          cache.Erase(*key);
          reference.erase(*key);
        }
      } else if (dice < 9990) {
        if (const std::string* key = pick(false)) cache.Erase(*key);
      } else if (dice < 9998) {
        const std::string& prefix = prefixes[rng() % 3];
        const size_t dropped = std::erase_if(reference, [&](const auto& kv) {
          return kv.first.starts_with(prefix);
        });
        const size_t erased = cache.InvalidatePrefix(prefix);
        if (evicts) {
          EXPECT_LE(erased, dropped) << "op " << op;
        } else {
          EXPECT_EQ(erased, dropped) << "op " << op;
        }
      } else {
        cache.Clear();
        reference.clear();
      }
      if (op % 100 != 0) continue;
      size_t entries = 0;
      size_t bytes = 0;
      for (const std::string& key : inserted) {
        bool hit = false;
        ASSERT_NO_FATAL_FAILURE(expect_lookup(key, &hit)) << "op " << op;
        if (!hit) continue;
        ++entries;
        bytes += key.size() + 96;
      }
      const CacheStats stats = cache.Stats();
      ASSERT_EQ(stats.entries, entries) << "op " << op;
      ASSERT_EQ(stats.bytes, bytes) << "op " << op;
    }
    const CacheStats stats = cache.Stats();
    if (evicts) {
      EXPECT_GT(stats.evictions, 1000u);
    } else {
      EXPECT_EQ(stats.evictions, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// LRU eviction.

TEST(ServeCacheLruTest, EvictsLeastRecentlyUsedFirst) {
  // One shard so the LRU order is global. Each 1-char key costs 97
  // approximate bytes; capacity fits exactly three entries.
  EstimateCache cache(/*capacity_bytes=*/3 * 97, /*num_shards=*/1);
  cache.Insert("A", 0.1);
  cache.Insert("B", 0.2);
  cache.Insert("C", 0.3);

  double got = 0.0;
  ASSERT_TRUE(cache.Lookup("A", &got));  // A is now most-recent.
  EXPECT_DOUBLE_EQ(got, 0.1);

  cache.Insert("D", 0.4);  // evicts B, the least recently used.
  EXPECT_FALSE(cache.Lookup("B", &got));
  EXPECT_TRUE(cache.Lookup("A", &got));
  EXPECT_TRUE(cache.Lookup("C", &got));
  EXPECT_TRUE(cache.Lookup("D", &got));

  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST(ServeCacheLruTest, ZeroCapacityDisablesCaching) {
  EstimateCache cache(/*capacity_bytes=*/0);
  cache.Insert("A", 0.1);
  double got = 0.0;
  EXPECT_FALSE(cache.Lookup("A", &got));
  EXPECT_EQ(cache.Stats().entries, 0u);
}

// CLOCK second chance. One shard; each 1-char key costs 97 approximate
// bytes, so a 3 * 97-byte cache holds three entries and the fourth insert
// makes the hand evict.

TEST(ServeCacheClockTest, AnEntryThatWasHitSurvivesOneSweep) {
  EstimateCache cache(/*capacity_bytes=*/3 * 97, /*num_shards=*/1);
  cache.Insert("A", 0.1);
  cache.Insert("B", 0.2);
  cache.Insert("C", 0.3);
  double got = 0.0;
  ASSERT_TRUE(cache.Lookup("A", &got));

  // The hand meets A first: A was hit, so the hand clears its flag and
  // evicts B instead. (Looking up a missing key sets no flag.)
  cache.Insert("D", 0.4);
  EXPECT_FALSE(cache.Lookup("B", &got));
  cache.Insert("E", 0.5);
  EXPECT_FALSE(cache.Lookup("C", &got));
  // A was not hit since the hand passed it: its second chance is spent.
  cache.Insert("F", 0.6);
  EXPECT_FALSE(cache.Lookup("A", &got));
  for (const char* key : {"D", "E", "F"}) EXPECT_TRUE(cache.Lookup(key, &got));
  EXPECT_EQ(cache.Stats().evictions, 3u);
}

TEST(ServeCacheClockTest, AnUnreferencedEntryIsEvictedFirst) {
  EstimateCache cache(/*capacity_bytes=*/3 * 97, /*num_shards=*/1);
  cache.Insert("A", 0.1);
  cache.Insert("B", 0.2);
  cache.Insert("C", 0.3);
  double got = 0.0;
  ASSERT_TRUE(cache.Lookup("A", &got));
  ASSERT_TRUE(cache.Lookup("B", &got));
  // C, the newest, is the one entry nobody hit.
  cache.Insert("D", 0.4);
  EXPECT_FALSE(cache.Lookup("C", &got));
  EXPECT_TRUE(cache.Lookup("A", &got));
  EXPECT_TRUE(cache.Lookup("B", &got));
  EXPECT_TRUE(cache.Lookup("D", &got));
  EXPECT_EQ(cache.Stats().evictions, 1u);
}

TEST(ServeCacheClockTest, ANewEntryNeverEvictsItself) {
  // An entry larger than its shard's capacity evicts everything else but
  // stays; the next insert evicts it in turn.
  EstimateCache cache(/*capacity_bytes=*/2 * 97, /*num_shards=*/1);
  cache.Insert("A", 0.1);
  cache.Insert("B", 0.2);
  const std::string big(300, 'x');
  cache.Insert(big, 0.9);
  double got = 0.0;
  ASSERT_TRUE(cache.Lookup(big, &got));
  EXPECT_DOUBLE_EQ(got, 0.9);
  EXPECT_FALSE(cache.Lookup("A", &got));
  EXPECT_FALSE(cache.Lookup("B", &got));
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, big.size() + 96);

  // Overflowing with each insert, a new entry still stays: every insert
  // evicts its predecessor, never itself.
  for (const char* key : {"C", "D", "E"}) {
    cache.Insert(std::string(250, key[0]), 0.5);
    ASSERT_TRUE(cache.Lookup(std::string(250, key[0]), &got)) << key;
  }
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 5u);
}

TEST(ServeCacheClockTest, BytesAndEntriesStayExactAfterEraseInvalidateClear) {
  EstimateCache cache(/*capacity_bytes=*/1 << 20, /*num_shards=*/4);
  // Keys of datasets "a" (even i) and "b" (odd i), of varied lengths.
  const auto key_of = [](int i) {
    return DatasetKeyPrefix(i % 2 == 0 ? "a" : "b") +
           std::string(1 + i % 7, 'k') + std::to_string(i);
  };
  size_t bytes = 0;
  size_t a_bytes = 0;
  for (int i = 0; i < 40; ++i) {
    cache.Insert(key_of(i), 0.01 * i);
    bytes += key_of(i).size() + 96;
    if (i % 2 == 0) a_bytes += key_of(i).size() + 96;
  }
  cache.Insert(key_of(8), 0.5);  // an overwrite adds nothing.
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 40u);
  EXPECT_EQ(stats.bytes, bytes);

  cache.Erase(key_of(7));
  cache.Erase("never inserted");
  bytes -= key_of(7).size() + 96;
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 39u);
  EXPECT_EQ(stats.bytes, bytes);
  EXPECT_EQ(stats.invalidations, 1u);

  // Dataset "a" goes; "b" stays, exactly.
  EXPECT_EQ(cache.InvalidatePrefix(DatasetKeyPrefix("a")), 20u);
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 19u);
  EXPECT_EQ(stats.bytes, bytes - a_bytes);
  EXPECT_EQ(stats.invalidations, 21u);
  double got = 0.0;
  EXPECT_FALSE(cache.Lookup(key_of(0), &got));
  EXPECT_TRUE(cache.Lookup(key_of(1), &got));
  EXPECT_DOUBLE_EQ(got, 0.01);

  // Erased slots are reused, and the totals stay exact through a refill.
  cache.Insert(key_of(0), 0.25);
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 20u);
  EXPECT_EQ(stats.bytes, bytes - a_bytes + key_of(0).size() + 96);

  cache.Clear();
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_FALSE(cache.Lookup(key_of(1), &got));
  cache.Insert(key_of(1), 0.75);
  EXPECT_TRUE(cache.Lookup(key_of(1), &got));
  EXPECT_DOUBLE_EQ(got, 0.75);
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, key_of(1).size() + 96);
}

// ---------------------------------------------------------------------------
// Single-flight cold load.

TEST(ServeSingleFlightTest, ConcurrentColdRequestsTrainOnce) {
  ModelManagerOptions options;
  options.factory = StubFactory(/*train_ms=*/150, /*estimate_ms=*/0);
  ModelManager manager(options);
  manager.RegisterDataset("t", SmallTable());

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const ServedModel>> models(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back(
        [&manager, &models, i] { models[i] = manager.GetModel("t", "stub"); });
  for (std::thread& thread : threads) thread.join();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_NE(models[i], nullptr);
    EXPECT_EQ(models[i], models[0]) << "thread " << i
                                    << " got a different instance";
  }
  const ManagerCounters counters = manager.counters();
  EXPECT_EQ(counters.cold_trains, 1u);
  EXPECT_GE(counters.single_flight_waits, 1u);
}

TEST(ServeSingleFlightTest, FailedLoadIsForgottenAndRetried) {
  ModelManagerOptions options;
  int calls = 0;
  options.factory = [&calls](const std::string&)
      -> std::unique_ptr<CardinalityEstimator> {
    if (++calls == 1) throw std::runtime_error("flaky construction");
    return std::make_unique<StubEstimator>(0, 0, true);
  };
  ModelManager manager(options);
  manager.RegisterDataset("t", SmallTable());

  std::string error;
  EXPECT_EQ(manager.GetModel("t", "stub", &error), nullptr);
  EXPECT_NE(error.find("flaky construction"), std::string::npos);
  EXPECT_EQ(manager.counters().train_failures, 1u);
  EXPECT_NE(manager.GetModel("t", "stub"), nullptr);  // retried, not stuck.
  EXPECT_EQ(manager.counters().cold_trains, 1u);
}

// A refresh whose estimator cannot even be constructed lands nowhere; it
// must still show as a refresh failure, and the stale model keeps serving.
TEST(ServeSingleFlightTest, FailedRefreshConstructionIsCounted) {
  ModelManagerOptions options;
  int calls = 0;
  options.factory = [&calls](const std::string&)
      -> std::unique_ptr<CardinalityEstimator> {
    if (++calls == 2) throw std::runtime_error("no estimator today");
    return std::make_unique<StubEstimator>(0, 0, true);
  };
  ModelManager manager(options);
  manager.RegisterDataset("t", SmallTable());
  const auto stale = manager.GetModel("t", "stub");
  ASSERT_NE(stale, nullptr);
  ASSERT_EQ(manager.ApplyUpdate("t", /*fraction=*/0.1, /*seed=*/3), 1u);

  std::string error;
  EXPECT_FALSE(manager.RefreshModelNow("t", "stub", nullptr, &error));
  EXPECT_NE(error.find("no estimator today"), std::string::npos);
  const ManagerCounters counters = manager.counters();
  EXPECT_EQ(counters.refresh_failures, 1u);
  EXPECT_EQ(counters.refreshes, 0u);
  EXPECT_EQ(counters.train_failures, 0u);
  EXPECT_EQ(manager.GetModel("t", "stub"), stale);
}

// ---------------------------------------------------------------------------
// Deadline -> failure taxonomy.

// The server reads ARECEL_QUERY_DEADLINE alone of the bench harness's
// robustness knobs: a fallback name the harness would refuse at startup
// cannot end a server process.
TEST(ServeDeadlineTest, EnvironmentArmsTheDeadlineAndIgnoresTheFallback) {
  ::setenv("ARECEL_FALLBACK", "postgrse", 1);
  ::setenv("ARECEL_QUERY_DEADLINE", "0.05", 1);
  ServeOptions options = ServeOptionsFromEnv();
  ::unsetenv("ARECEL_FALLBACK");
  ::unsetenv("ARECEL_QUERY_DEADLINE");
  EXPECT_EQ(options.robust.query_deadline_seconds, 0.05);

  options.manager.factory =
      StubFactory(/*train_ms=*/0, /*estimate_ms=*/300);
  EstimatorServer server(options);
  server.RegisterDataset("t", SmallTable());
  EXPECT_EQ(server.Estimate("t", "stub", MakeQuery({{0, 1.0, 5.0}})).failure,
            FailureKind::kEstimateTimeout);
  // Let the abandoned worker drain before the server is torn down.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
}

TEST(ServeDeadlineTest, TimeoutMapsToEstimateTimeout) {
  ServeOptions options;
  options.robust.query_deadline_seconds = 0.05;
  options.manager.factory =
      StubFactory(/*train_ms=*/0, /*estimate_ms=*/500);
  EstimatorServer server(options);
  server.RegisterDataset("t", SmallTable());

  const EstimateResponse response =
      server.Estimate("t", "stub", MakeQuery({{0, 1.0, 5.0}}));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.failure, FailureKind::kEstimateTimeout);
  EXPECT_EQ(server.Stats().deadline_exceeded, 1u);

  // The stub is thread-safe, so the model entry survives the timeout.
  EXPECT_EQ(server.Stats().manager.evictions, 0u);
  // Let the abandoned worker drain before the server (and its model) can
  // be torn down safely at process exit.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
}

TEST(ServeDeadlineTest, TimeoutOnSerializedModelEvictsTheEntry) {
  ServeOptions options;
  options.robust.query_deadline_seconds = 0.05;
  options.manager.factory =
      StubFactory(/*train_ms=*/0, /*estimate_ms=*/400, /*thread_safe=*/false);
  EstimatorServer server(options);
  server.RegisterDataset("t", SmallTable());

  const EstimateResponse response =
      server.Estimate("t", "stub", MakeQuery({{0, 1.0, 5.0}}));
  EXPECT_EQ(response.failure, FailureKind::kEstimateTimeout);
  // The abandoned worker may still hold the model's inference mutex, so
  // the entry was retired; the next request gets a fresh instance.
  EXPECT_EQ(server.Stats().manager.evictions, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
}

TEST(ServeDeadlineTest, ThrowMapsToEstimateThrew) {
  class ThrowingEstimator : public StubEstimator {
   public:
    ThrowingEstimator() : StubEstimator(0, 0, true) {}
    double EstimateSelectivity(const Query&) const override {
      throw std::runtime_error("inference exploded");
    }
  };
  ServeOptions options;
  options.manager.factory = [](const std::string&) {
    return std::make_unique<ThrowingEstimator>();
  };
  EstimatorServer server(options);
  server.RegisterDataset("t", SmallTable());

  const EstimateResponse response =
      server.Estimate("t", "stub", MakeQuery({{0, 1.0, 5.0}}));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.failure, FailureKind::kEstimateThrew);
  EXPECT_NE(response.detail.find("inference exploded"), std::string::npos);
}

// Each batch slice blocks on guarded calls while three clients' slices
// occupy the pool; the guarded calls must still start at once rather than
// queue behind the slices that wait for them.
TEST(ServeDeadlineTest, ArmedBatchesFromConcurrentClientsNeverTimeOut) {
  ServeOptions options;
  options.cache_enabled = false;
  options.dispatch_threads = 4;
  options.robust.query_deadline_seconds = 5.0;
  options.manager.factory =
      StubFactory(/*train_ms=*/0, /*estimate_ms=*/1, /*thread_safe=*/true);
  EstimatorServer server(options);
  server.RegisterDataset("t", SmallTable());

  constexpr int kClients = 3;
  constexpr int kBatches = 8;
  const std::vector<Query> queries(64, MakeQuery({{0, 1.0, 5.0}}));
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &queries, &failed] {
      for (int b = 0; b < kBatches; ++b)
        for (const auto& response :
             server.EstimateBatch("t", "stub", queries))
          if (!response.ok) ++failed;
    });
  }
  for (std::thread& client : clients) client.join();

  const ServerStats stats = server.Stats();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  // Every answer was recorded in the model's latency histogram; the stub
  // sleeps 1 ms per estimate.
  ASSERT_EQ(stats.latencies.size(), 1u);
  EXPECT_EQ(stats.latencies[0].model, "t/stub");
  EXPECT_EQ(stats.latencies[0].requests,
            static_cast<uint64_t>(kClients * kBatches) * queries.size());
  EXPECT_GE(stats.latencies[0].p50_ms, 1.0);
  EXPECT_LE(stats.latencies[0].p50_ms, stats.latencies[0].p99_ms);
  EXPECT_LE(stats.latencies[0].p99_ms, stats.latencies[0].max_ms);
}

// ---------------------------------------------------------------------------
// Serving behavior: cache hits, persistence, update + refresh.

TEST(ServeServerTest, RepeatAndPermutedQueriesHitTheCache) {
  ServeOptions options;
  EstimatorServer server(options);
  server.RegisterDataset("t", SmallTable());

  const Query a = MakeQuery({{0, 2.0, 9.0}, {1, 1.0, 4.0}});
  const Query permuted = MakeQuery({{1, 1.0, 4.0}, {0, 2.0, 9.0}});

  const EstimateResponse miss = server.Estimate("t", "sampling", a);
  ASSERT_TRUE(miss.ok);
  EXPECT_FALSE(miss.cache_hit);

  const EstimateResponse hit = server.Estimate("t", "sampling", permuted);
  ASSERT_TRUE(hit.ok);
  EXPECT_TRUE(hit.cache_hit);
  // Bit-identical replay, not merely approximately equal.
  EXPECT_EQ(hit.selectivity, miss.selectivity);
  EXPECT_EQ(server.Stats().cache.hits, 1u);
}

// A name registers once: registering it again changes neither the table
// nor what is served, so versions only move forward and a cached answer
// always belongs to the table it was computed on.
TEST(ServeServerTest, ADatasetNameRegistersOnce) {
  ServeOptions options;
  EstimatorServer server(options);
  const Table first = SmallTable();
  ASSERT_TRUE(server.RegisterDataset("t", first));

  const Query query = MakeQuery({{0, 2.0, 9.0}, {1, 1.0, 4.0}});
  const EstimateResponse before = server.Estimate("t", "sampling", query);
  ASSERT_TRUE(before.ok);

  EXPECT_FALSE(server.RegisterDataset(
      "t", GenerateSynthetic2D(/*rows=*/5000, /*skew=*/1.0,
                               /*correlation=*/0.6, /*domain_size=*/40,
                               /*seed=*/6)));
  EXPECT_EQ(server.manager().TableSnapshot("t")->num_rows(),
            first.num_rows());
  const EstimateResponse after = server.Estimate("t", "sampling", query);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.selectivity, before.selectivity);
  EXPECT_EQ(after.cardinality, before.cardinality);
  // A model first loaded after the second call trains on the first table.
  const auto postgres = server.manager().GetModel("t", "postgres");
  ASSERT_NE(postgres, nullptr);
  EXPECT_EQ(postgres->trained_rows, first.num_rows());
}

TEST(ServeServerTest, BatchMatchesSingleRequests) {
  ServeOptions options;
  options.dispatch_threads = 4;  // force the fan-out path even on 1 core.
  options.cache_enabled = false;
  EstimatorServer server(options);
  server.RegisterDataset("t", SmallTable());

  const Table table = SmallTable();
  const std::vector<Query> queries = GenerateQueries(table, 64, /*seed=*/3);
  const auto batched = server.EstimateBatch("t", "sampling", queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const EstimateResponse single =
        server.Estimate("t", "sampling", queries[i]);
    ASSERT_TRUE(batched[i].ok);
    EXPECT_EQ(batched[i].selectivity, single.selectivity) << "query " << i;
  }
  EXPECT_EQ(server.Stats().batches, 1u);
}

// ---------------------------------------------------------------------------
// Boundary: a query the serving model cannot answer is refused before the
// cache or the estimator sees it.

// Counts the queries that reach it.
class CountingEstimator : public CardinalityEstimator {
 public:
  explicit CountingEstimator(std::shared_ptr<std::atomic<int>> calls)
      : calls_(std::move(calls)) {}
  std::string Name() const override { return "counting"; }
  void Train(const Table&, const TrainContext&) override {}
  double EstimateSelectivity(const Query&) const override {
    ++*calls_;
    return 0.25;
  }
  size_t SizeBytes() const override { return 8; }

 private:
  std::shared_ptr<std::atomic<int>> calls_;
};

TEST(ServeBoundaryTest, RefusesQueriesTheModelCannotAnswer) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  ServeOptions options;
  options.feedback_enabled = true;
  options.dispatch_threads = 4;  // force the fan-out path even on 1 core.
  options.manager.factory = [calls](const std::string& name)
      -> std::unique_ptr<CardinalityEstimator> {
    if (name == "counting") return std::make_unique<CountingEstimator>(calls);
    return MakeEstimator(name);
  };
  EstimatorServer server(options);
  server.RegisterDataset("t", SmallTable());  // two columns.

  Query named = MakeQuery({{0, 1.0, 9.0}});
  named.tables = {"t"};
  Query joined = MakeQuery({{0, 1.0, 9.0}});
  joined.joins.push_back({"t", 0, "u", 0});
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Query> refused = {
      MakeQuery({{0, 1.0, 9.0}, {99, 1.0, 2.0}}),  // column past the table.
      MakeQuery({{-1, 1.0, 2.0}}),                 // negative column.
      MakeQuery({{0, 1.0, 9.0, 1}}),               // a second table.
      named,
      joined,
      MakeQuery({{0, kNaN, 9.0}}),                 // NaN lower bound.
      MakeQuery({{0, 1.0, 9.0}, {1, 1.0, kNaN}})};  // NaN upper bound.
  for (const Query& query : refused) {
    const EstimateResponse response = server.Estimate("t", "counting", query);
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.failure, FailureKind::kInvalidQuery);
    EXPECT_FALSE(response.detail.empty());
  }
  // The sampling scan would read column 99 out of bounds.
  EXPECT_EQ(server.Estimate("t", "sampling", refused[0]).failure,
            FailureKind::kInvalidQuery);

  // A batch interleaving the refused queries with distinct answerable ones.
  std::vector<Query> batch;
  for (int i = 0; i < 8; ++i) {
    batch.insert(batch.end(), refused.begin(), refused.end());
    batch.push_back(MakeQuery({{0, 1.0, 2.0 + i}}));
  }
  const std::vector<EstimateResponse> responses =
      server.EstimateBatch("t", "counting", batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const bool answerable = i % (refused.size() + 1) == refused.size();
    EXPECT_EQ(responses[i].ok, answerable) << i;
    if (!answerable) {
      EXPECT_EQ(responses[i].failure, FailureKind::kInvalidQuery) << i;
    }
  }

  server.DrainFeedback();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(calls->load(), 8);  // only the answerable queries.
  EXPECT_EQ(stats.estimate_errors, 1 + 9 * refused.size());
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 8u);
  EXPECT_EQ(stats.cache.entries, 8u);
  EXPECT_EQ(stats.feedback.worker.enqueued, 8u);

  // Infinite bounds are open ranges, not NaN: answered.
  EXPECT_TRUE(
      server.Estimate("t", "counting", MakeQuery({{0, -kInf, kInf}})).ok);
  EXPECT_TRUE(server.Estimate("t", "counting", MakeQuery({{1, 2.0, kInf}})).ok);
}

TEST(ServeBoundaryTest, ServesQueriesPastSixtyFourPredicatesWithFeedback) {
  // The truth worker counts every answered query on its scanner; a query
  // with more than 64 predicates must be counted there, not abort it.
  auto calls = std::make_shared<std::atomic<int>>(0);
  ServeOptions options;
  options.feedback_enabled = true;
  options.manager.factory = [calls](const std::string& name)
      -> std::unique_ptr<CardinalityEstimator> {
    if (name == "counting") return std::make_unique<CountingEstimator>(calls);
    return MakeEstimator(name);
  };
  EstimatorServer server(options);
  DatasetSpec spec = CensusSpec();
  spec.rows = 2000;
  const Table census = GenerateDataset(spec, 7);
  server.RegisterDataset("census", census);
  for (size_t preds : {65, 130}) {
    // Half-domain bounds on columns i % 13.
    std::vector<Predicate> predicates;
    for (size_t i = 0; i < preds; ++i) {
      const size_t col = i % census.num_cols();
      const std::vector<double>& domain = census.column(col).domain;
      predicates.push_back(
          {static_cast<int>(col), domain.front(), domain[domain.size() / 2]});
    }
    EXPECT_TRUE(server.Estimate("census", "counting", MakeQuery(predicates)).ok)
        << preds;
  }
  server.DrainFeedback();
  EXPECT_EQ(server.Stats().feedback.worker.completed, 2u);
}

// ---------------------------------------------------------------------------
// Batch accounting: a batch answers refusals and hits on the caller and
// sends only its misses to inference, yet serves and counts every query as
// single calls would.

// Answers a selectivity that depends on every bound, so a response in the
// wrong position or from the wrong query shows. Serialized, it also
// depends on how many estimates it made before, as a sampling estimator's
// answer depends on its generator's state, so an estimate made that a
// batch served in order would not have made shows too.
class BoundsStub : public CardinalityEstimator {
 public:
  explicit BoundsStub(bool thread_safe) : thread_safe_(thread_safe) {}
  std::string Name() const override { return "bounds"; }
  void Train(const Table&, const TrainContext&) override {}
  double EstimateSelectivity(const Query& query) const override {
    double sum = thread_safe_ ? 0.0 : 0.001 * static_cast<double>(calls_++);
    for (const Predicate& p : query.predicates)
      sum += p.column + 0.37 * p.lo + 0.011 * p.hi;
    return std::fmod(std::fabs(sum), 1.0);
  }
  size_t SizeBytes() const override { return 8; }
  bool ThreadSafeEstimates() const override { return thread_safe_; }

 private:
  bool thread_safe_;
  mutable uint64_t calls_ = 0;  // only when serialized.
};

uint64_t ModelRequests(const ServerStats& stats) {
  return stats.latencies.empty() ? 0 : stats.latencies[0].requests;
}

TEST(ServeBatchTest, MixedBatchIsServedAndCountedLikeSingleCalls) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // 24 queries cached before the batch, 24 that are not, 3 more copies of
  // two uncached ones (one in permuted predicate order), 8 refused.
  std::vector<Query> cached, uncached;
  for (int i = 0; i < 48; ++i)
    (i < 24 ? cached : uncached)
        .push_back(MakeQuery({{0, 1.0 + i, 6.0 + i}, {1, 0.5 * i, 30.0}}));
  Query joined = MakeQuery({{0, 1.0, 9.0}});
  joined.joins.push_back({"t", 0, "u", 0});
  const std::vector<Query> refused = {
      MakeQuery({{99, 1.0, 2.0}}),       MakeQuery({{-1, 1.0, 2.0}}),
      MakeQuery({{0, kNaN, 2.0}}),       MakeQuery({{1, 1.0, kNaN}}),
      MakeQuery({{0, 1.0, 9.0, 1}}),     joined,
      MakeQuery({{0, 1.0, 2.0}, {7, 1.0, 2.0}}),
      MakeQuery({{1, 3.0, 4.0}, {0, kNaN, kNaN}})};
  Query permuted = uncached[7];
  std::swap(permuted.predicates[0], permuted.predicates[1]);
  const std::vector<Query> copies = {uncached[3], uncached[3], permuted};
  std::vector<Query> batch = cached;
  batch.insert(batch.end(), uncached.begin(), uncached.end());
  batch.insert(batch.end(), copies.begin(), copies.end());
  batch.insert(batch.end(), refused.begin(), refused.end());
  std::shuffle(batch.begin(), batch.end(), std::mt19937_64(41));

  for (const bool cache_on : {true, false}) {
    for (const bool thread_safe : {true, false}) {
      SCOPED_TRACE(std::string(cache_on ? "cache on" : "cache off") +
                   (thread_safe ? ", thread-safe" : ", serialized"));
      ServeOptions options;
      options.cache_enabled = cache_on;
      options.dispatch_threads = 4;  // fan the misses out even on 1 core.
      options.manager.factory = [thread_safe](const std::string&) {
        return std::make_unique<BoundsStub>(thread_safe);
      };
      // `batched` serves the batch; `single` serves the same queries one
      // call at a time after the same warm-up.
      EstimatorServer batched(options);
      EstimatorServer single(options);
      for (EstimatorServer* server : {&batched, &single}) {
        server->RegisterDataset("t", SmallTable());
        for (const Query& query : cached)
          ASSERT_TRUE(server->Estimate("t", "bounds", query).ok);
      }

      const ServerStats before = batched.Stats();
      const std::vector<EstimateResponse> responses =
          batched.EstimateBatch("t", "bounds", batch);
      const ServerStats after = batched.Stats();

      ASSERT_EQ(responses.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        const EstimateResponse expected =
            single.Estimate("t", "bounds", batch[i]);
        EXPECT_EQ(responses[i].ok, expected.ok) << i;
        EXPECT_EQ(responses[i].failure, expected.failure) << i;
        EXPECT_EQ(responses[i].detail, expected.detail) << i;
        EXPECT_EQ(responses[i].selectivity, expected.selectivity) << i;
        EXPECT_EQ(responses[i].cardinality, expected.cardinality) << i;
        EXPECT_EQ(responses[i].cache_hit, expected.cache_hit) << i;
        EXPECT_EQ(responses[i].data_version, expected.data_version) << i;
      }

      // A copy is a hit on the entry its first copy's inference filled.
      const size_t answered = cached.size() + uncached.size() + copies.size();
      EXPECT_EQ(after.requests - before.requests, batch.size());
      EXPECT_EQ(after.batches - before.batches, 1u);
      EXPECT_EQ(after.estimate_errors - before.estimate_errors,
                refused.size());
      EXPECT_EQ(after.cache.hits - before.cache.hits,
                cache_on ? cached.size() + copies.size() : 0u);
      EXPECT_EQ(after.cache.misses - before.cache.misses,
                cache_on ? uncached.size() : 0u);
      EXPECT_EQ(after.cache.entries,
                cache_on ? cached.size() + uncached.size() : 0u);
      EXPECT_EQ(ModelRequests(after) - ModelRequests(before), answered);
    }
  }
}

// Holds each Enter() until the test releases it — Release(n) lets the
// first n entries through — so a test can look at the server between two
// gated steps: truth deliveries, which the truth worker runs one at a
// time, model trains, or write-backs.
class Gate {
 public:
  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_ >= entered_; });
  }
  bool WaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [&] { return entered_ >= n; });
  }
  void Release(int n) {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = n;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  int released_ = 0;
};

class GatedSink : public CardinalityEstimator, public FeedbackSink {
 public:
  explicit GatedSink(std::shared_ptr<Gate> gate)
      : gate_(std::move(gate)) {}
  std::string Name() const override { return "gated-sink"; }
  void Train(const Table&, const TrainContext&) override {}
  double EstimateSelectivity(const Query&) const override { return 0.25; }
  size_t SizeBytes() const override { return 8; }
  void ObserveTruth(const Query&, double) override { gate_->Enter(); }

 private:
  std::shared_ptr<Gate> gate_;
};

// Releases every gated step when destroyed. Declared after the server, so
// it runs first: whatever an assertion skipped, no thread the server joins
// is left parked in Enter().
struct ReleaseAll {
  std::shared_ptr<Gate> gate;
  ~ReleaseAll() { gate->Release(INT_MAX); }
};

TEST(ServeServerTest, SinkTruthErasesOnlyItsOwnCacheEntry) {
  auto gate = std::make_shared<Gate>();
  ServeOptions options;
  options.feedback_enabled = true;
  options.manager.factory = [gate](const std::string&) {
    return std::make_unique<GatedSink>(gate);
  };
  EstimatorServer server(options);
  ReleaseAll release_all{gate};
  server.RegisterDataset("t", SmallTable());

  // key({A}) is a byte prefix of key({A, B}): B's column sorts after A's.
  const Query a = MakeQuery({{0, 1.0, 9.0}});
  const Query ab = MakeQuery({{0, 1.0, 9.0}, {1, 1.0, 4.0}});
  ASSERT_TRUE(server.Estimate("t", "gated-sink", a).ok);
  ASSERT_TRUE(server.Estimate("t", "gated-sink", ab).ok);
  ASSERT_TRUE(gate->WaitEntered(1));  // {A}'s truth is being delivered.
  gate->Release(1);
  ASSERT_TRUE(gate->WaitEntered(2));  // {A}'s is done; {A, B}'s is held.

  EXPECT_TRUE(server.Estimate("t", "gated-sink", ab).cache_hit);
  EXPECT_FALSE(server.Estimate("t", "gated-sink", a).cache_hit);
  EXPECT_EQ(server.Stats().cache.invalidations, 1u);
  gate->Release(INT_MAX);
  server.DrainFeedback();
}

// A sink that records the truths it observes; every Train passes through
// `gate`.
class RecordingSink : public CardinalityEstimator, public FeedbackSink {
 public:
  RecordingSink(std::shared_ptr<Gate> gate,
                std::shared_ptr<std::vector<double>> truths)
      : gate_(std::move(gate)), truths_(std::move(truths)) {}
  std::string Name() const override { return "recording-sink"; }
  void Train(const Table&, const TrainContext&) override { gate_->Enter(); }
  double EstimateSelectivity(const Query&) const override { return 0.25; }
  size_t SizeBytes() const override { return 8; }
  void ObserveTruth(const Query&, double truth) override {
    truths_->push_back(truth);
  }

 private:
  std::shared_ptr<Gate> gate_;
  std::shared_ptr<std::vector<double>> truths_;
};

// Between an update and its refresh, a stale sink is fed truths over the
// version it serves, not over the newest table.
TEST(ServeUpdateTest, StaleSinkTruthsAreLabelledOnTheServedVersion) {
  auto gate = std::make_shared<Gate>();
  auto truths = std::make_shared<std::vector<double>>();
  ServeOptions options;
  options.feedback_enabled = true;
  options.manager.factory = [gate, truths](const std::string&) {
    return std::make_unique<RecordingSink>(gate, truths);
  };
  EstimatorServer server(options);
  ReleaseAll release_all{gate};
  server.RegisterDataset("t", SmallTable());

  const Query query = MakeQuery({{0, 1.0, 5.0}});
  gate->Release(1);  // the cold train.
  ASSERT_NE(server.manager().GetModel("t", "recording-sink"), nullptr);
  const std::shared_ptr<const Table> version0 =
      server.manager().TableSnapshot("t");
  ASSERT_EQ(server.Update("t", /*seed=*/97), 1u);
  ASSERT_TRUE(gate->WaitEntered(2));  // version 1's refresh is held.
  const double truth0 = ExecuteSelectivity(*version0, query);
  ASSERT_NE(truth0,
            ExecuteSelectivity(*server.manager().TableSnapshot("t"), query));

  const EstimateResponse stale =
      server.Estimate("t", "recording-sink", query);
  ASSERT_TRUE(stale.ok);
  ASSERT_EQ(stale.data_version, 0u);
  server.DrainFeedback();
  ASSERT_EQ(truths->size(), 1u);
  EXPECT_EQ(truths->front(), truth0);
  gate->Release(INT_MAX);
  server.WaitForRefreshes();
}

TEST(ServeUpdateTest, UpdateInvalidatesAndRefreshMatchesManualRetrain) {
  ServeOptions options;
  EstimatorServer server(options);
  server.RegisterDataset("t", SmallTable(/*seed=*/5));

  const Query query = MakeQuery({{0, 2.0, 9.0}, {1, 1.0, 4.0}});
  const EstimateResponse before = server.Estimate("t", "sampling", query);
  ASSERT_TRUE(before.ok);
  EXPECT_EQ(before.data_version, 0u);
  ASSERT_TRUE(server.Estimate("t", "sampling", query).cache_hit);

  const uint64_t version = server.Update("t", /*seed=*/97);
  EXPECT_EQ(version, 1u);
  server.WaitForRefreshes();

  const EstimateResponse after = server.Estimate("t", "sampling", query);
  ASSERT_TRUE(after.ok);
  EXPECT_FALSE(after.cache_hit) << "update must invalidate the dataset";
  EXPECT_EQ(after.data_version, 1u);
  EXPECT_EQ(server.Stats().manager.refreshes, 1u);
  EXPECT_GE(server.Stats().cache.invalidations, 1u);

  // The refreshed model must match a manual retrain at the same version
  // exactly: same updated table (§5.1 append, same fraction and seed) and
  // the same per-version training seed.
  Table manual =
      AppendCorrelatedUpdate(SmallTable(/*seed=*/5), kUpdateFraction, 97);
  auto fresh = MakeEstimator("sampling");
  TrainContext context;
  context.seed = TrainSeedForVersion(options.manager.train_seed, version);
  fresh->Train(manual, context);
  EXPECT_EQ(after.selectivity, fresh->EstimateSelectivity(query));
  EXPECT_EQ(after.cardinality,
            fresh->EstimateSelectivity(query) *
                static_cast<double>(manual.num_rows()));
}

TEST(ServeUpdateTest, StaleModelServesWhileRefreshRuns) {
  ServeOptions options;
  options.manager.factory =
      StubFactory(/*train_ms=*/200, /*estimate_ms=*/0);
  EstimatorServer server(options);
  server.RegisterDataset("t", SmallTable());

  const Query query = MakeQuery({{0, 1.0, 5.0}});
  ASSERT_TRUE(server.Estimate("t", "stub", query).ok);

  server.Update("t");
  // Refresh needs ~200ms; the stale model must answer immediately.
  const EstimateResponse stale = server.Estimate("t", "stub", query);
  ASSERT_TRUE(stale.ok);
  EXPECT_EQ(stale.data_version, 0u);

  server.WaitForRefreshes();
  const EstimateResponse fresh = server.Estimate("t", "stub", query);
  ASSERT_TRUE(fresh.ok);
  EXPECT_EQ(fresh.data_version, 1u);
}

// A stub whose every Train passes through `gate`.
class GatedTrainStub : public StubEstimator {
 public:
  explicit GatedTrainStub(std::shared_ptr<Gate> gate)
      : StubEstimator(0, 0, true), gate_(std::move(gate)) {}
  void Train(const Table&, const TrainContext&) override { gate_->Enter(); }

 private:
  std::shared_ptr<Gate> gate_;
};

ServeEstimatorFactory GatedTrainFactory(std::shared_ptr<Gate> gate) {
  return [gate](const std::string&) {
    return std::make_unique<GatedTrainStub>(gate);
  };
}

// The second of two back-to-back updates lands while the first one's
// refresh trains, so it finds the entry building and starts nothing; the
// refresh lands behind its data and must be refreshed again.
TEST(ServeUpdateTest, BackToBackUpdatesEndServedAtTheLastVersion) {
  auto gate = std::make_shared<Gate>();
  ServeOptions options;
  options.manager.factory = GatedTrainFactory(gate);
  EstimatorServer server(options);
  ReleaseAll release_all{gate};
  server.RegisterDataset("t", SmallTable());

  const Query query = MakeQuery({{0, 1.0, 5.0}});
  gate->Release(1);  // the cold train.
  ASSERT_TRUE(server.Estimate("t", "stub", query).ok);
  ASSERT_EQ(server.Update("t", /*seed=*/97), 1u);
  ASSERT_TRUE(gate->WaitEntered(2));  // version 1's refresh is training.
  ASSERT_EQ(server.Update("t", /*seed=*/98), 2u);
  gate->Release(INT_MAX);
  server.WaitForRefreshes();

  const EstimateResponse response = server.Estimate("t", "stub", query);
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.data_version, 2u);
  EXPECT_EQ(server.manager().GetModel("t", "stub")->trained_rows,
            server.manager().TableSnapshot("t")->num_rows());
  EXPECT_EQ(server.Stats().manager.refreshes, 2u);
}

// An update that lands during the cold train finds no model to refresh.
// The cold caller gets its version-0 model at once, and the model, landed
// behind its data, is refreshed in the background.
TEST(ServeUpdateTest, UpdateDuringColdTrainIsRefreshedAfterIt) {
  auto gate = std::make_shared<Gate>();
  ServeOptions options;
  options.manager.factory = GatedTrainFactory(gate);
  EstimatorServer server(options);
  std::future<EstimateResponse> cold;
  ReleaseAll release_all{gate};  // runs before `cold` joins its thread.
  server.RegisterDataset("t", SmallTable());

  const Query query = MakeQuery({{0, 1.0, 5.0}});
  cold = std::async(std::launch::async, [&server, query] {
    return server.Estimate("t", "stub", query);
  });
  ASSERT_TRUE(gate->WaitEntered(1));  // the cold train.
  ASSERT_EQ(server.Update("t"), 1u);
  gate->Release(1);
  // The refresh that follows trains through the gate and stays parked, so
  // the cold call must return without it.
  ASSERT_EQ(cold.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  const EstimateResponse first = cold.get();
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.data_version, 0u);

  gate->Release(INT_MAX);
  server.WaitForRefreshes();
  const EstimateResponse caught_up = server.Estimate("t", "stub", query);
  ASSERT_TRUE(caught_up.ok);
  EXPECT_EQ(caught_up.data_version, 1u);
  EXPECT_EQ(server.Stats().manager.refreshes, 1u);
}

// Concurrent updates of one dataset must each extend the version before
// them: an update that appended to a stale snapshot would drop the rows of
// the update that installed in between while still bumping the version.
TEST(ServeUpdateTest, ConcurrentUpdatesExtendEachOther) {
  constexpr int kThreads = 4;
  constexpr int kUpdatesPerThread = 3;
  constexpr double kFraction = 0.2;
  ModelManager manager;
  // Large enough that one append takes long enough for the threads' calls
  // to overlap.
  const Table base = GenerateSynthetic2D(/*rows=*/200000, /*skew=*/1.0,
                                         /*correlation=*/0.6,
                                         /*domain_size=*/40, /*seed=*/5);
  size_t expected_rows = base.num_rows();
  for (int i = 0; i < kThreads * kUpdatesPerThread; ++i) {
    expected_rows += static_cast<size_t>(
        static_cast<double>(expected_rows) * kFraction);
  }
  manager.RegisterDataset("t", base);

  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&manager, &start, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kUpdatesPerThread; ++i) {
        manager.ApplyUpdate("t", kFraction,
                            /*seed=*/static_cast<uint64_t>(10 * t + i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(manager.DataVersion("t"),
            static_cast<uint64_t>(kThreads * kUpdatesPerThread));
  EXPECT_EQ(manager.TableSnapshot("t")->num_rows(), expected_rows);
}

// ---------------------------------------------------------------------------
// Concurrent smoke for the TSan preset: readers, batch readers, and an
// updater hammer one server; the invariant is simply "no data race, every
// completed request is well-formed".

TEST(ServeConcurrencyTest, ConcurrentEstimateBatchAndUpdateSmoke) {
  ServeOptions options;
  options.dispatch_threads = 2;
  EstimatorServer server(options);
  server.RegisterDataset("t", SmallTable());

  const Table table = SmallTable();
  const std::vector<Query> queries = GenerateQueries(table, 32, /*seed=*/9);

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int reader = 0; reader < 3; ++reader) {
    threads.emplace_back([&server, &queries, &failed, reader] {
      for (int i = 0; i < 40; ++i) {
        if (reader == 0 && i % 4 == 0) {
          const auto responses = server.EstimateBatch(
              "t", "sampling",
              std::vector<Query>(queries.begin(), queries.begin() + 16));
          for (const auto& response : responses)
            if (!response.ok) failed.store(true);
        } else {
          const auto response = server.Estimate(
              "t", "sampling", queries[static_cast<size_t>(i) % queries.size()]);
          if (!response.ok) failed.store(true);
          if (response.ok &&
              (response.selectivity < 0.0 || response.selectivity > 1.0))
            failed.store(true);
        }
      }
    });
  }
  threads.emplace_back([&server] {
    for (int i = 0; i < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      server.Update("t", /*seed=*/100 + static_cast<uint64_t>(i));
    }
  });
  for (std::thread& thread : threads) thread.join();
  server.WaitForRefreshes();

  EXPECT_FALSE(failed.load());
  const ServerStats stats = server.Stats();
  EXPECT_GE(stats.requests, 100u);
  EXPECT_EQ(stats.estimate_errors, 0u);
  EXPECT_EQ(stats.updates, 2u);
  EXPECT_EQ(stats.manager.refresh_failures, 0u);
}

// Four threads Lookup while one Inserts, Erases and drops whole datasets
// by prefix. Every key's value is derived from the key, so a lookup that
// returned another entry's value, or a torn one, fails; the counters must
// account for every lookup exactly.
TEST(ServeCacheConcurrencyTest, LookupsRaceInsertEraseAndInvalidate) {
  constexpr int kDatasets = 3;
  constexpr int kKeys = 64;
  // About 100 of the 192 keys fit, so inserts also evict.
  EstimateCache cache(/*capacity_bytes=*/100 * 112, /*num_shards=*/4);
  const auto key_of = [](int dataset, int i) {
    return DatasetKeyPrefix("d" + std::to_string(dataset)) + "query-" +
           std::to_string(i);
  };
  const auto value_of = [](int dataset, int i) {
    return (dataset * kKeys + i) / 1000.0;
  };

  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<uint64_t> lookups{0}, hits{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(static_cast<uint64_t>(r) + 1);
      uint64_t mine = 0, my_hits = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int dataset = static_cast<int>(rng() % kDatasets);
        const int i = static_cast<int>(rng() % kKeys);
        double got = -1.0;
        ++mine;
        if (cache.Lookup(key_of(dataset, i), &got)) {
          ++my_hits;
          if (got != value_of(dataset, i)) ++wrong;
        }
      }
      lookups += mine;
      hits += my_hits;
    });
  }
  std::mt19937_64 rng(99);
  for (int round = 0; round < 60; ++round) {
    const int dataset = round % kDatasets;
    for (int i = 0; i < kKeys; ++i)
      cache.Insert(key_of(dataset, i), value_of(dataset, i));
    for (int k = 0; k < 8; ++k) {
      const int i = static_cast<int>(rng() % kKeys);
      cache.Erase(key_of(static_cast<int>(rng() % kDatasets), i));
    }
    if (round % 5 == 4)
      cache.InvalidatePrefix(
          DatasetKeyPrefix("d" + std::to_string(rng() % kDatasets)));
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(wrong.load(), 0);
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, hits.load());
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.invalidations, 0u);
  EXPECT_LE(stats.bytes, cache.capacity_bytes());
}

// ---------------------------------------------------------------------------
// End-to-end store wiring: a server constructed with a model store writes
// each trained model back on a pool worker, and a second server over the
// same directory warm-starts from disk instead of training.

TEST(ServeStoreWiringTest, WarmRestartThroughConfiguredStore) {
  const std::string dir = ::testing::TempDir() + "arecel_serve_store_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  const Query query = MakeQuery({{0, 2.0, 20.0}});
  {
    ServeOptions options;
    store::StoreOptions store_options;
    store_options.root_dir = dir;
    options.manager.store =
        std::make_shared<store::ModelStore>(store_options);
    EstimatorServer server(options);
    server.RegisterDataset("t", SmallTable());

    const EstimateResponse response = server.Estimate("t", "postgres", query);
    ASSERT_TRUE(response.ok);
    server.WaitForRefreshes();  // the cold train's write-back.

    const ServerStats stats = server.Stats();
    ASSERT_TRUE(stats.store_enabled);
    EXPECT_GE(stats.store.commits, 1u);
    EXPECT_GE(stats.manager.saves_enqueued, 1u);
    EXPECT_EQ(stats.manager.corrupt_loads, 0u);
  }
  {
    ServeOptions options;
    store::StoreOptions store_options;
    store_options.root_dir = dir;
    options.manager.store =
        std::make_shared<store::ModelStore>(store_options);
    EstimatorServer server(options);
    server.RegisterDataset("t", SmallTable());

    const EstimateResponse response = server.Estimate("t", "postgres", query);
    ASSERT_TRUE(response.ok);
    const ServerStats stats = server.Stats();
    EXPECT_EQ(stats.manager.cold_trains, 0u);
    EXPECT_GE(stats.manager.persisted_loads, 1u);
    EXPECT_GE(stats.store.hits, 1u);
  }
  std::filesystem::remove_all(dir);
}

// An empty directory for a store, unique to this process and `tag`.
std::string FreshStoreDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "arecel_serve_store_" +
                          tag + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

ServeOptions WithStore(const std::string& dir) {
  ServeOptions options;
  store::StoreOptions store_options;
  store_options.root_dir = dir;
  options.manager.store = std::make_shared<store::ModelStore>(store_options);
  return options;
}

// A persistable stub whose write-back serialization (not the counting
// probe) passes through `gate`.
class GatedSaveStub : public StubEstimator {
 public:
  explicit GatedSaveStub(std::shared_ptr<Gate> gate)
      : StubEstimator(0, 0, true), gate_(std::move(gate)) {}
  bool SerializeModel(ByteWriter* writer) const override {
    if (!writer->counting_only()) gate_->Enter();
    writer->U32(1);
    return true;
  }

 private:
  std::shared_ptr<Gate> gate_;
};

TEST(ServeStoreWiringTest, ColdLoadReturnsWhileItsSaveIsHeld) {
  const std::string dir = FreshStoreDir("held");
  auto gate = std::make_shared<Gate>();
  ModelManagerOptions options = WithStore(dir).manager;
  options.factory = [gate](const std::string&) {
    return std::make_unique<GatedSaveStub>(gate);
  };
  ModelManager manager(options);
  ReleaseAll release_all{gate};
  manager.RegisterDataset("t", SmallTable());

  ASSERT_NE(manager.GetModel("t", "stub"), nullptr);
  ASSERT_TRUE(gate->WaitEntered(1));  // the write-back is serializing.
  EXPECT_EQ(manager.counters().saves_enqueued, 1u);
  EXPECT_EQ(manager.counters().saves_committed, 0u);
  EXPECT_EQ(options.store->stats().puts, 0u);
  gate->Release(1);
  manager.WaitForRefreshes();
  EXPECT_EQ(manager.counters().saves_committed, 1u);
  EXPECT_EQ(options.store->stats().commits, 1u);
  std::filesystem::remove_all(dir);
}

TEST(ServeStoreWiringTest, NewestGenerationHoldsTheLastPublishedModel) {
  const std::string dir = FreshStoreDir("newest");
  const ServeOptions options = WithStore(dir);
  EstimatorServer server(options);
  server.RegisterDataset("t", SmallTable());

  ASSERT_TRUE(server.Estimate("t", "postgres", MakeQuery({{0, 2.0, 9.0}})).ok);
  ASSERT_EQ(server.Update("t", /*seed=*/97), 1u);
  ASSERT_EQ(server.Update("t", /*seed=*/98), 2u);
  server.WaitForRefreshes();

  const auto model = server.manager().GetModel("t", "postgres");
  ASSERT_NE(model, nullptr);
  ASSERT_EQ(model->data_version, 2u);
  std::string published;
  ASSERT_TRUE(SerializeEstimatorBytes(*model->estimator, &published));
  std::string payload;
  uint64_t generation = 0;
  ASSERT_TRUE(options.manager.store->Get("t", "postgres", &payload,
                                         &generation));
  // One generation per published model: the cold train and each refresh.
  EXPECT_EQ(generation, 1 + server.Stats().manager.refreshes);
  EXPECT_EQ(payload, published);
  std::filesystem::remove_all(dir);
}

TEST(ServeStoreWiringTest, ServerDestroyedAfterAColdTrainLeavesItsModel) {
  const std::string dir = FreshStoreDir("exit");
  {
    EstimatorServer server(WithStore(dir));
    server.RegisterDataset("t", SmallTable());
    ASSERT_TRUE(
        server.Estimate("t", "postgres", MakeQuery({{0, 2.0, 9.0}})).ok);
  }  // destroyed with no wait: the manager finishes the write-back.
  EstimatorServer server(WithStore(dir));
  server.RegisterDataset("t", SmallTable());
  const auto model = server.manager().GetModel("t", "postgres");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->source, "loaded");
  std::filesystem::remove_all(dir);
}

// A stub whose second Train, counted over every instance, throws.
class SecondTrainThrowsStub : public StubEstimator {
 public:
  explicit SecondTrainThrowsStub(std::shared_ptr<std::atomic<int>> trains)
      : StubEstimator(0, 0, true), trains_(std::move(trains)) {}
  void Train(const Table&, const TrainContext&) override {
    if (++*trains_ == 2) throw std::runtime_error("transient train failure");
  }

 private:
  std::shared_ptr<std::atomic<int>> trains_;
};

// Nothing retries a failed refresh on a timer: the stale model serves
// until the next update starts a refresh of every entry behind its data.
TEST(ServeStoreWiringTest, FailedRefreshIsRetriedByTheNextUpdate) {
  const std::string dir = FreshStoreDir("retry");
  auto trains = std::make_shared<std::atomic<int>>(0);
  ServeOptions options = WithStore(dir);
  options.manager.factory = [trains](const std::string&) {
    return std::make_unique<SecondTrainThrowsStub>(trains);
  };
  EstimatorServer server(options);
  server.RegisterDataset("t", SmallTable());
  const Query query = MakeQuery({{0, 1.0, 5.0}});
  ASSERT_TRUE(server.Estimate("t", "stub", query).ok);

  ASSERT_EQ(server.Update("t", /*seed=*/97), 1u);
  server.WaitForRefreshes();
  EXPECT_EQ(server.Stats().manager.refresh_failures, 1u);
  EXPECT_EQ(server.Stats().manager.refreshes, 0u);
  EXPECT_EQ(server.Estimate("t", "stub", query).data_version, 0u);

  ASSERT_EQ(server.Update("t", /*seed=*/98), 2u);
  server.WaitForRefreshes();
  const EstimateResponse response = server.Estimate("t", "stub", query);
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.data_version, 2u);
  EXPECT_EQ(server.Stats().manager.refreshes, 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace arecel::serve
