#ifndef ARECEL_SERVE_CACHE_H_
#define ARECEL_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "workload/query.h"

namespace arecel::serve {

// Canonical fingerprint of a query, serialized as raw bytes: a table-set
// prefix (table count + sorted table names), then the predicates sorted by
// (column, lo, hi) with -0.0 normalized to +0.0 — per table in sorted-name
// order for a join query — then a join query's edges, each edge's
// endpoints ordered and the edge list sorted. Two queries with the same
// conjuncts, tables and edges in a different order or orientation — the
// common case when an optimizer enumerates join orders — map to the same
// key, so they share one cache entry. A single-table query keys as one
// anonymous table, so the table-set prefix keeps single-table and join
// fingerprints disjoint: a single-table query and a one-table join query
// with byte-identical predicate lists never alias one cache entry. The
// canonicalization deliberately stops at reorderings that cannot change an
// estimator's answer (every registry estimator treats the predicate list
// as a set over columns); semantic rewrites like merging duplicate columns
// or dropping vacuous intervals are NOT applied, because an approximate
// model may answer the rewritten query differently and the cache contract
// is bit-identical replay.
std::string CanonicalPredicateKey(const Query& query);

// Full cache key: dataset, estimator, and data version prefix the query
// fingerprint, so a bumped version can never alias a stale entry and a
// whole dataset's entries share an erasable prefix.
std::string EstimateCacheKey(const std::string& dataset,
                             const std::string& estimator,
                             uint64_t data_version, const Query& query);

// Prefix covering every entry of (dataset) — the invalidation handle used
// when the append-update procedure bumps the data version.
std::string DatasetKeyPrefix(const std::string& dataset);

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;  // entries erased by Erase/InvalidatePrefix.
  size_t entries = 0;
  size_t bytes = 0;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// Sharded LRU cache of selectivity estimates. Shard selection hashes the
// key, each shard holds an independent mutex + LRU list, so concurrent
// serving threads rarely contend on the same lock. Capacity is in
// approximate bytes (key size + fixed per-entry overhead), split evenly
// across shards; eviction is strict per-shard LRU.
class EstimateCache {
 public:
  // `capacity_bytes` = 0 disables caching (Lookup always misses, Insert is
  // a no-op). `num_shards` is rounded up to at least 1.
  explicit EstimateCache(size_t capacity_bytes, size_t num_shards = 16);

  bool Lookup(const std::string& key, double* selectivity);
  void Insert(const std::string& key, double selectivity);

  // Erases the entry for exactly `key`, if cached, locking only its shard
  // (counted as an invalidation).
  void Erase(const std::string& key);

  // Erases every entry whose key starts with `prefix` (counted as
  // invalidations, not evictions). Walks every shard. Returns the number
  // erased.
  size_t InvalidatePrefix(const std::string& prefix);

  void Clear();

  CacheStats Stats() const;

  size_t capacity_bytes() const { return capacity_bytes_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Shard {
    mutable std::mutex mutex;
    // Front = most recently used.
    std::list<std::pair<std::string, double>> lru;
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, double>>::iterator>
        index;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
  };

  Shard& ShardFor(const std::string& key);

  size_t capacity_bytes_;
  size_t shard_capacity_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace arecel::serve

#endif  // ARECEL_SERVE_CACHE_H_
