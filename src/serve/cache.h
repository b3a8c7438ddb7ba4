#ifndef ARECEL_SERVE_CACHE_H_
#define ARECEL_SERVE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
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
std::string EstimateCacheKey(std::string_view dataset,
                             std::string_view estimator,
                             uint64_t data_version, const Query& query);

// Prefix covering every entry of (dataset) — the invalidation handle used
// when the append-update procedure bumps the data version.
std::string DatasetKeyPrefix(const std::string& dataset);

// EstimateCacheKey's bytes, built into a buffer the caller owns. A key of
// up to kInlineBytes (a single-table query of a dozen predicates) stays
// inside the object; a longer key spills to one heap block, which later
// builds reuse. Sorting the predicates takes one scratch allocation.
class CacheKeyBuffer {
 public:
  static constexpr size_t kInlineBytes = 320;

  void Build(std::string_view dataset, std::string_view estimator,
             uint64_t data_version, const Query& query);

  std::string_view view() const {
    return {size_ <= kInlineBytes ? inline_ : spill_.data(), size_};
  }

 private:
  char inline_[kInlineBytes];
  std::string spill_;
  size_t size_ = 0;
};

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

// Sharded CLOCK cache of selectivity estimates. One hash of the key
// (util/hash.h HashBytes) picks the shard and probes its index. A Lookup
// holds its shard's reader-writer lock shared, and a hit writes nothing
// but that lock's reader count and the hit counter beside it (plus, once
// per sweep of the hand, the entry's `referenced` flag), so concurrent
// hits on one shard do not serialize. Insert, Erase, InvalidatePrefix and
// Clear hold the lock exclusively. Capacity is in approximate bytes (key
// size + fixed per-entry overhead), split evenly across shards; when an
// Insert overflows its shard, the shard's CLOCK hand evicts: it walks the
// shard's entries in a ring, gives an entry that was hit since the hand's
// last pass a second chance (clearing its flag), and evicts the first one
// that was not. A new entry joins the ring after its Insert's evictions,
// so it never evicts itself. When that Insert evicted, the new entry takes
// the slot just freed, behind the hand, and gets a full sweep before the
// hand comes back to it. Otherwise it fills the latest hole left in the
// ring (by Erase, InvalidatePrefix or an Insert that evicted twice),
// wherever that lies (at the hand, it is the next candidate), or a new
// slot at the ring's end.
class EstimateCache {
 public:
  // `capacity_bytes` = 0 disables caching (Lookup always misses, Insert is
  // a no-op). `num_shards` is rounded up to at least 1.
  explicit EstimateCache(size_t capacity_bytes, size_t num_shards = 16);

  bool Lookup(std::string_view key, double* selectivity);
  void Insert(std::string_view key, double selectivity);

  // Erases the entry for exactly `key`, if cached, locking only its shard
  // (counted as an invalidation).
  void Erase(std::string_view key);

  // Erases every entry whose key starts with `prefix` (counted as
  // invalidations, not evictions). Walks every shard. Returns the number
  // erased.
  size_t InvalidatePrefix(std::string_view prefix);

  void Clear();

  CacheStats Stats() const;

  size_t capacity_bytes() const { return capacity_bytes_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    std::string key;
    uint64_t hash;
    double selectivity;
    size_t slot;  // in the shard's ring.
    // Set by a hit when clear; cleared by the hand's pass.
    std::atomic<bool> referenced{false};
  };
  // An entry's key bytes (a view into the entry, which stores them once)
  // and their hash, so a probe hashes its key once.
  struct IndexKey {
    std::string_view bytes;
    uint64_t hash;
    bool operator==(const IndexKey& other) const {
      return hash == other.hash && bytes == other.bytes;
    }
  };
  struct IndexHash {
    size_t operator()(const IndexKey& key) const noexcept { return key.hash; }
  };

  struct alignas(64) Shard {
    mutable std::shared_mutex mutex;
    // Beside the lock's reader count (glibc's x86-64 lock is 56 bytes, so
    // both share one line): a hit dirties no other line.
    std::atomic<uint64_t> hits{0};
    alignas(64) std::atomic<uint64_t> misses{0};
    // Written under the exclusive lock.
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
    size_t bytes = 0;
    alignas(64) std::unordered_map<IndexKey, Entry*, IndexHash> index;
    // The CLOCK ring: every entry has a slot; evictions and erasures leave
    // null holes, which later inserts fill, most recent first.
    std::vector<std::unique_ptr<Entry>> ring;
    std::vector<size_t> holes;
    size_t hand = 0;
  };

  Shard& ShardFor(uint64_t hash);
  static void EvictOne(Shard* shard);
  static void Remove(Shard* shard, Entry* entry);

  size_t capacity_bytes_;
  size_t shard_capacity_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace arecel::serve

#endif  // ARECEL_SERVE_CACHE_H_
