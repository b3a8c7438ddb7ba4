#include "serve/cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <span>
#include <utility>

#include "util/check.h"
#include "util/hash.h"

namespace arecel::serve {

namespace {

constexpr size_t kPredicateBytes = sizeof(int32_t) + 2 * sizeof(double);

// Writes key bytes to `out`, or, with a null `out`, only counts them, so
// one walk of a query sizes its key and a second fills the buffer.
class KeyWriter {
 public:
  explicit KeyWriter(char* out) : out_(out) {}

  bool counting() const { return out_ == nullptr; }
  size_t size() const { return size_; }

  void Raw(const void* data, size_t bytes) {
    if (out_ != nullptr) std::memcpy(out_ + size_, data, bytes);
    size_ += bytes;
  }
  void Skip(size_t bytes) { size_ += bytes; }
  // `name`, then the '\x1f' that ends it.
  void Name(std::string_view name) {
    Raw(name.data(), name.size());
    Raw("\x1f", 1);
  }

 private:
  char* out_;
  size_t size_ = 0;
};

// Approximate resident cost of one entry: key bytes plus the entry, its
// ring slot and its index node. Exactness does not matter — the knob is
// "roughly N MB".
size_t EntryBytes(size_t key_size) { return key_size + 96; }

// A strict weak order on bounds, NaN included: numbers by value (-0.0 ties
// +0.0, and both key alike), then every NaN, ordered by its bits (which
// WritePredicate writes as they are). Without NaN it is operator<, so
// keys of NaN-free queries keep their bytes.
bool BoundLess(double a, double b) {
  const bool a_nan = std::isnan(a);
  const bool b_nan = std::isnan(b);
  if (a_nan || b_nan) {
    return a_nan && b_nan ? CanonicalBits(a) < CanonicalBits(b) : b_nan;
  }
  return a < b;
}

void WritePredicate(KeyWriter* w, const Predicate& p) {
  char bytes[kPredicateBytes];
  const int32_t column = p.column;
  const uint64_t lo_bits = CanonicalBits(p.lo);  // -0.0 keys as +0.0.
  const uint64_t hi_bits = CanonicalBits(p.hi);
  std::memcpy(bytes, &column, sizeof(column));
  std::memcpy(bytes + sizeof(column), &lo_bits, sizeof(lo_bits));
  std::memcpy(bytes + sizeof(column) + sizeof(lo_bits), &hi_bits,
              sizeof(hi_bits));
  w->Raw(bytes, sizeof(bytes));
}

// The predicates sorted by (column, lo, hi), each as column, lo, hi.
void WritePredicates(KeyWriter* w, std::span<const Predicate> predicates) {
  if (w->counting()) {
    w->Skip(predicates.size() * kPredicateBytes);
    return;
  }
  std::vector<Predicate> sorted(predicates.begin(), predicates.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const Predicate& a, const Predicate& b) {
              if (a.column != b.column) return a.column < b.column;
              if (BoundLess(a.lo, b.lo)) return true;
              if (BoundLess(b.lo, a.lo)) return false;
              return BoundLess(a.hi, b.hi);
            });
  for (const Predicate& p : sorted) WritePredicate(w, p);
}

// The bytes of CanonicalPredicateKey(query). A single-table query keys as
// one anonymous table: its table-set prefix (count 1, empty name) can
// never equal a join query's (count >= 2, or count 1 with a non-empty
// name), so the two kinds of query never alias one cache entry.
void WriteCanonicalKey(KeyWriter* w, const Query& query) {
  if (query.IsSingleTable()) {
    const uint32_t one_table = 1;
    w->Raw(&one_table, sizeof(one_table));
    w->Name("");
    WritePredicates(w, query.predicates);
    return;
  }

  ARECEL_CHECK_MSG(!query.tables.empty(), "join edges without tables");
  ARECEL_CHECK_MSG(query.HasValidTableIndices(),
                   "predicate table index out of range");
  // Table set: count, then the sorted names.
  std::vector<std::string> names = query.tables;
  std::sort(names.begin(), names.end());
  const uint32_t count = static_cast<uint32_t>(names.size());
  w->Raw(&count, sizeof(count));
  for (const std::string& name : names) w->Name(name);
  for (const std::string& name : names) {
    w->Name(name);
    WritePredicates(w, query.TablePredicates(query.TableIndex(name)));
    w->Raw("\x1f", 1);
  }
  // Edges: order each edge's endpoints, then sort the edge list, so the
  // fingerprint is insensitive to edge orientation and order.
  struct Endpoint {
    std::string_view table;
    int32_t column;
    auto operator<=>(const Endpoint&) const = default;
  };
  std::vector<std::pair<Endpoint, Endpoint>> edges;
  edges.reserve(query.joins.size());
  for (const JoinEdge& e : query.joins) {
    Endpoint left{e.left_table, e.left_column};
    Endpoint right{e.right_table, e.right_column};
    if (right < left) std::swap(left, right);
    edges.emplace_back(left, right);
  }
  std::sort(edges.begin(), edges.end());
  for (const auto& [left, right] : edges) {
    w->Name(left.table);
    w->Raw(&left.column, sizeof(left.column));
    w->Name(right.table);
    w->Raw(&right.column, sizeof(right.column));
  }
}

void WriteEstimateCacheKey(KeyWriter* w, std::string_view dataset,
                           std::string_view estimator, uint64_t data_version,
                           const Query& query) {
  w->Name(dataset);  // DatasetKeyPrefix(dataset).
  w->Name(estimator);
  w->Raw(&data_version, sizeof(data_version));
  WriteCanonicalKey(w, query);
}

// The bytes `write` writes, sized by a counting pass, as one string.
template <typename Write>
std::string KeyString(Write&& write) {
  KeyWriter counter(nullptr);
  write(&counter);
  std::string key(counter.size(), '\0');
  KeyWriter writer(key.data());
  write(&writer);
  return key;
}

}  // namespace

std::string CanonicalPredicateKey(const Query& query) {
  return KeyString([&](KeyWriter* w) { WriteCanonicalKey(w, query); });
}

std::string DatasetKeyPrefix(const std::string& dataset) {
  return dataset + '\x1f';
}

std::string EstimateCacheKey(std::string_view dataset,
                             std::string_view estimator,
                             uint64_t data_version, const Query& query) {
  return KeyString([&](KeyWriter* w) {
    WriteEstimateCacheKey(w, dataset, estimator, data_version, query);
  });
}

void CacheKeyBuffer::Build(std::string_view dataset,
                           std::string_view estimator, uint64_t data_version,
                           const Query& query) {
  KeyWriter counter(nullptr);
  WriteEstimateCacheKey(&counter, dataset, estimator, data_version, query);
  size_ = counter.size();
  char* out = inline_;
  if (size_ > kInlineBytes) {
    spill_.resize(size_);  // keeps its capacity across builds.
    out = spill_.data();
  }
  KeyWriter writer(out);
  WriteEstimateCacheKey(&writer, dataset, estimator, data_version, query);
}

EstimateCache::EstimateCache(size_t capacity_bytes, size_t num_shards)
    : capacity_bytes_(capacity_bytes) {
  num_shards = std::max<size_t>(1, num_shards);
  shard_capacity_bytes_ = capacity_bytes / num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

EstimateCache::Shard& EstimateCache::ShardFor(uint64_t hash) {
  // The high half: each shard's index buckets by the whole hash.
  return *shards_[(hash >> 32) % shards_.size()];
}

bool EstimateCache::Lookup(std::string_view key, double* selectivity) {
  if (capacity_bytes_ == 0) return false;
  const uint64_t hash = HashBytes(key.data(), key.size());
  Shard& shard = ShardFor(hash);
  std::shared_lock lock(shard.mutex);
  const auto it = shard.index.find(IndexKey{key, hash});
  if (it == shard.index.end()) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Entry& entry = *it->second;
  // Stored only when clear, so a hot entry's line stays shared.
  if (!entry.referenced.load(std::memory_order_relaxed))
    entry.referenced.store(true, std::memory_order_relaxed);
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  *selectivity = entry.selectivity;
  return true;
}

void EstimateCache::Insert(std::string_view key, double selectivity) {
  if (capacity_bytes_ == 0) return;
  const uint64_t hash = HashBytes(key.data(), key.size());
  Shard& shard = ShardFor(hash);
  std::lock_guard lock(shard.mutex);
  if (const auto it = shard.index.find(IndexKey{key, hash});
      it != shard.index.end()) {
    it->second->selectivity = selectivity;
    it->second->referenced.store(true, std::memory_order_relaxed);
    return;
  }
  // The new entry is not in the ring yet, so the hand cannot pick it.
  shard.bytes += EntryBytes(key.size());
  while (shard.bytes > shard_capacity_bytes_ && !shard.index.empty())
    EvictOne(&shard);
  size_t slot = shard.ring.size();
  if (shard.holes.empty()) {
    shard.ring.emplace_back();
  } else {
    // When this Insert evicted, the slot its last eviction freed, just
    // behind the hand; otherwise the latest hole left, which may lie
    // anywhere in the ring, the hand's own slot included.
    slot = shard.holes.back();
    shard.holes.pop_back();
  }
  auto entry = std::make_unique<Entry>(std::string(key), hash, selectivity,
                                       slot);
  shard.index.emplace(IndexKey{entry->key, hash}, entry.get());
  shard.ring[slot] = std::move(entry);
}

void EstimateCache::EvictOne(Shard* shard) {
  for (;; ++shard->hand) {
    if (shard->hand >= shard->ring.size()) shard->hand = 0;
    Entry* entry = shard->ring[shard->hand].get();
    if (entry == nullptr) continue;
    if (entry->referenced.load(std::memory_order_relaxed)) {
      entry->referenced.store(false, std::memory_order_relaxed);
      continue;
    }
    ++shard->hand;
    Remove(shard, entry);
    ++shard->evictions;
    return;
  }
}

void EstimateCache::Remove(Shard* shard, Entry* entry) {
  shard->bytes -= EntryBytes(entry->key.size());
  shard->index.erase(IndexKey{entry->key, entry->hash});
  shard->holes.push_back(entry->slot);
  shard->ring[entry->slot].reset();
}

void EstimateCache::Erase(std::string_view key) {
  const uint64_t hash = HashBytes(key.data(), key.size());
  Shard& shard = ShardFor(hash);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.index.find(IndexKey{key, hash});
  if (it == shard.index.end()) return;
  Remove(&shard, it->second);
  ++shard.invalidations;
}

size_t EstimateCache::InvalidatePrefix(std::string_view prefix) {
  size_t erased = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard lock(shard.mutex);
    for (const std::unique_ptr<Entry>& slot : shard.ring) {
      if (slot == nullptr || !slot->key.starts_with(prefix)) continue;
      Remove(&shard, slot.get());
      ++shard.invalidations;
      ++erased;
    }
    // An emptied ring starts over, so it holds no run of holes.
    if (shard.index.empty()) {
      shard.ring.clear();
      shard.holes.clear();
      shard.hand = 0;
    }
  }
  return erased;
}

void EstimateCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard lock(shard.mutex);
    shard.index.clear();
    shard.ring.clear();
    shard.holes.clear();
    shard.hand = 0;
    shard.bytes = 0;
  }
}

CacheStats EstimateCache::Stats() const {
  CacheStats stats;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::shared_lock lock(shard.mutex);
    stats.hits += shard.hits.load(std::memory_order_relaxed);
    stats.misses += shard.misses.load(std::memory_order_relaxed);
    stats.evictions += shard.evictions;
    stats.invalidations += shard.invalidations;
    stats.entries += shard.index.size();
    stats.bytes += shard.bytes;
  }
  return stats;
}

}  // namespace arecel::serve
