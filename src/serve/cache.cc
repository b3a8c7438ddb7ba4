#include "serve/cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.h"
#include "util/hash.h"

namespace arecel::serve {

namespace {

// FNV-1a, the same fingerprint family the sweep journal uses.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

void AppendRaw(std::string* out, const void* data, size_t bytes) {
  out->append(static_cast<const char*>(data), bytes);
}

void AppendBound(std::string* out, double v) {
  const uint64_t bits = CanonicalBits(v);  // -0.0 and +0.0 key alike.
  AppendRaw(out, &bits, sizeof(bits));
}

// Approximate resident cost of one entry: key bytes plus list/map node
// overhead. Exactness does not matter — the knob is "roughly N MB".
size_t EntryBytes(const std::string& key) { return key.size() + 96; }

// Table-set identifier: table count, then each name '\x1f'-terminated (the
// caller passes them sorted). A single-table query keys as one anonymous
// table, so its prefix (count 1, empty name) can never equal a join
// query's (count >= 2, or count 1 with a non-empty name): the two kinds of
// query never alias one cache entry.
void AppendTableSetPrefix(std::string* out,
                          const std::vector<std::string>& sorted_names) {
  const uint32_t count = static_cast<uint32_t>(sorted_names.size());
  AppendRaw(out, &count, sizeof(count));
  for (const std::string& name : sorted_names) {
    *out += name;
    *out += '\x1f';
  }
}

// A strict weak order on bounds, NaN included: numbers by value (-0.0 ties
// +0.0, and both key alike), then every NaN, ordered by its bits (which
// AppendBound writes as they are). Without NaN it is operator<, so keys of
// NaN-free queries keep their bytes.
bool BoundLess(double a, double b) {
  const bool a_nan = std::isnan(a);
  const bool b_nan = std::isnan(b);
  if (a_nan || b_nan) {
    return a_nan && b_nan ? CanonicalBits(a) < CanonicalBits(b) : b_nan;
  }
  return a < b;
}

void AppendPredicateBytes(std::string* out,
                          const std::vector<Predicate>& predicates) {
  std::vector<Predicate> sorted = predicates;
  std::sort(sorted.begin(), sorted.end(),
            [](const Predicate& a, const Predicate& b) {
              if (a.column != b.column) return a.column < b.column;
              if (BoundLess(a.lo, b.lo)) return true;
              if (BoundLess(b.lo, a.lo)) return false;
              return BoundLess(a.hi, b.hi);
            });
  for (const Predicate& p : sorted) {
    const int32_t column = p.column;
    AppendRaw(out, &column, sizeof(column));
    AppendBound(out, p.lo);
    AppendBound(out, p.hi);
  }
}

// Appends CanonicalPredicateKey(query) to `key`.
void AppendCanonicalKey(std::string* key, const Query& query) {
  if (query.IsSingleTable()) {
    const uint32_t one_table = 1;  // the prefix of one anonymous table.
    AppendRaw(key, &one_table, sizeof(one_table));
    *key += '\x1f';
    AppendPredicateBytes(key, query.predicates);
    return;
  }

  ARECEL_CHECK_MSG(!query.tables.empty(), "join edges without tables");
  ARECEL_CHECK_MSG(query.HasValidTableIndices(),
                   "predicate table index out of range");
  std::vector<std::string> names = query.tables;
  std::sort(names.begin(), names.end());
  AppendTableSetPrefix(key, names);
  for (const std::string& name : names) {
    *key += name;
    *key += '\x1f';
    AppendPredicateBytes(key, query.TablePredicates(query.TableIndex(name)));
    *key += '\x1f';
  }
  // Edges: order each edge's endpoints, then sort the edge list, so the
  // fingerprint is insensitive to edge orientation and order.
  struct Endpoint {
    std::string table;
    int32_t column;
  };
  std::vector<std::pair<Endpoint, Endpoint>> edges;
  edges.reserve(query.joins.size());
  for (const JoinEdge& e : query.joins) {
    Endpoint left{e.left_table, e.left_column};
    Endpoint right{e.right_table, e.right_column};
    const bool ordered = left.table < right.table ||
                         (left.table == right.table &&
                          left.column <= right.column);
    if (!ordered) std::swap(left, right);
    edges.emplace_back(std::move(left), std::move(right));
  }
  std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
    if (a.first.table != b.first.table) return a.first.table < b.first.table;
    if (a.first.column != b.first.column)
      return a.first.column < b.first.column;
    if (a.second.table != b.second.table)
      return a.second.table < b.second.table;
    return a.second.column < b.second.column;
  });
  for (const auto& [left, right] : edges) {
    *key += left.table;
    *key += '\x1f';
    AppendRaw(key, &left.column, sizeof(left.column));
    *key += right.table;
    *key += '\x1f';
    AppendRaw(key, &right.column, sizeof(right.column));
  }
}

}  // namespace

std::string CanonicalPredicateKey(const Query& query) {
  std::string key;
  AppendCanonicalKey(&key, query);
  return key;
}

std::string DatasetKeyPrefix(const std::string& dataset) {
  return dataset + '\x1f';
}

std::string EstimateCacheKey(const std::string& dataset,
                             const std::string& estimator,
                             uint64_t data_version, const Query& query) {
  std::string key;
  // One allocation: the single-table key's size is known up front.
  key.reserve(dataset.size() + estimator.size() + 2 + sizeof(data_version) +
              sizeof(uint32_t) + 1 +
              query.predicates.size() *
                  (sizeof(int32_t) + 2 * sizeof(double)));
  key += DatasetKeyPrefix(dataset);
  key += estimator;
  key += '\x1f';
  AppendRaw(&key, &data_version, sizeof(data_version));
  AppendCanonicalKey(&key, query);
  return key;
}

EstimateCache::EstimateCache(size_t capacity_bytes, size_t num_shards)
    : capacity_bytes_(capacity_bytes) {
  num_shards = std::max<size_t>(1, num_shards);
  shard_capacity_bytes_ = capacity_bytes / num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

EstimateCache::Shard& EstimateCache::ShardFor(const std::string& key) {
  return *shards_[Fnv1a(key) % shards_.size()];
}

bool EstimateCache::Lookup(const std::string& key, double* selectivity) {
  if (capacity_bytes_ == 0) return false;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  *selectivity = it->second->second;
  return true;
}

void EstimateCache::Insert(const std::string& key, double selectivity) {
  if (capacity_bytes_ == 0) return;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = selectivity;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, selectivity);
  shard.index[key] = shard.lru.begin();
  shard.bytes += EntryBytes(key);
  while (shard.bytes > shard_capacity_bytes_ && shard.lru.size() > 1) {
    const auto& victim = shard.lru.back();
    shard.bytes -= EntryBytes(victim.first);
    shard.index.erase(victim.first);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void EstimateCache::Erase(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return;
  shard.bytes -= EntryBytes(key);
  shard.lru.erase(it->second);
  shard.index.erase(it);
  ++shard.invalidations;
}

size_t EstimateCache::InvalidatePrefix(const std::string& prefix) {
  size_t erased = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        shard.bytes -= EntryBytes(it->first);
        shard.index.erase(it->first);
        it = shard.lru.erase(it);
        ++shard.invalidations;
        ++erased;
      } else {
        ++it;
      }
    }
  }
  return erased;
}

void EstimateCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

CacheStats EstimateCache::Stats() const {
  CacheStats stats;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.evictions += shard.evictions;
    stats.invalidations += shard.invalidations;
    stats.entries += shard.lru.size();
    stats.bytes += shard.bytes;
  }
  return stats;
}

}  // namespace arecel::serve
