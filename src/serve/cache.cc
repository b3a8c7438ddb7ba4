#include "serve/cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <new>
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

  size_t size() const { return size_; }

  // Where the next `bytes` bytes of the key go, for the caller to fill;
  // null while counting.
  char* Reserve(size_t bytes) {
    char* at = out_ == nullptr ? nullptr : out_ + size_;
    size_ += bytes;
    return at;
  }
  void Raw(const void* data, size_t bytes) {
    if (char* at = Reserve(bytes)) std::memcpy(at, data, bytes);
  }
  // `name`, then the '\x1f' that ends it.
  void Name(std::string_view name) {
    Raw(name.data(), name.size());
    Raw("\x1f", 1);
  }

 private:
  char* out_;
  size_t size_ = 0;
};

// Approximate resident cost of one entry: key bytes plus the entry's
// header, its ring slot and its index slots. Exactness does not matter —
// the knob is "roughly N MB".
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

// The order predicates key in: by (column, lo, hi).
bool PredicateLess(const Predicate& a, const Predicate& b) {
  if (a.column != b.column) return a.column < b.column;
  if (BoundLess(a.lo, b.lo)) return true;
  if (BoundLess(b.lo, a.lo)) return false;
  return BoundLess(a.hi, b.hi);
}

// `p` as column, lo, hi, at `out`.
void WritePredicate(char* out, const Predicate& p) {
  const int32_t column = p.column;
  const uint64_t lo_bits = CanonicalBits(p.lo);  // -0.0 keys as +0.0.
  const uint64_t hi_bits = CanonicalBits(p.hi);
  std::memcpy(out, &column, sizeof(column));
  std::memcpy(out + sizeof(column), &lo_bits, sizeof(lo_bits));
  std::memcpy(out + sizeof(column) + sizeof(lo_bits), &hi_bits,
              sizeof(hi_bits));
}

// Most predicates WritePredicates places by rank.
constexpr size_t kRankedPredicates = 32;

// The predicates in PredicateLess order, each as column, lo, hi. Up to
// kRankedPredicates predicates over distinct columns are not sorted: each
// one's slot is the number of smaller columns, counted with no branch on
// the data (a query's predicates come in any order, so a sort's compares
// mispredict). A repeated column gives two predicates one rank, so such a
// query, like a longer one, sorts a heap copy instead.
void WritePredicates(KeyWriter* w, std::span<const Predicate> predicates) {
  const size_t n = predicates.size();
  char* out = w->Reserve(n * kPredicateBytes);
  if (out == nullptr) return;  // counting.
  if (n <= kRankedPredicates) {
    int32_t columns[kRankedPredicates];
    for (size_t i = 0; i < n; ++i) columns[i] = predicates[i].column;
    uint32_t ranks[kRankedPredicates];
    uint64_t ranks_taken = 0;
    for (size_t i = 0; i < n; ++i) {
      uint32_t rank = 0;
      for (size_t j = 0; j < n; ++j) rank += columns[j] < columns[i];
      ranks[i] = rank;
      ranks_taken |= uint64_t{1} << rank;
    }
    if (ranks_taken == (uint64_t{1} << n) - 1) {  // n distinct ranks.
      for (size_t i = 0; i < n; ++i)
        WritePredicate(out + ranks[i] * kPredicateBytes, predicates[i]);
      return;
    }
  }
  std::vector<Predicate> sorted(predicates.begin(), predicates.end());
  std::sort(sorted.begin(), sorted.end(), PredicateLess);
  for (size_t i = 0; i < n; ++i)
    WritePredicate(out + i * kPredicateBytes, sorted[i]);
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

// Slots a shard's index starts with.
constexpr size_t kMinIndexSlots = 16;

EstimateCache::EstimateCache(size_t capacity_bytes, size_t num_shards)
    : capacity_bytes_(capacity_bytes) {
  num_shards = std::max<size_t>(1, num_shards);
  shard_capacity_bytes_ = capacity_bytes / num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->index.resize(kMinIndexSlots);
  }
}

void EstimateCache::FreeEntry::operator()(Entry* entry) const {
  entry->~Entry();
  ::operator delete(entry);
}

EstimateCache::Shard& EstimateCache::ShardFor(uint64_t hash) {
  // The high half: each shard's index probes from the low bits.
  return *shards_[(hash >> 32) % shards_.size()];
}

EstimateCache::Entry* EstimateCache::Find(const Shard& shard,
                                          std::string_view key,
                                          uint64_t hash) {
  const size_t mask = shard.index.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const IndexSlot& slot = shard.index[i];
    if (slot.entry == nullptr) return nullptr;
    if (slot.hash == hash && slot.entry->key() == key) return slot.entry;
  }
}

void EstimateCache::IndexInsert(Shard* shard, Entry* entry) {
  // Puts `slot` in the first empty slot of its probe run.
  const auto place = [](std::vector<IndexSlot>* index, IndexSlot slot) {
    const size_t mask = index->size() - 1;
    size_t i = slot.hash & mask;
    while ((*index)[i].entry != nullptr) i = (i + 1) & mask;
    (*index)[i] = slot;
  };
  if (2 * (shard->entries + 1) > shard->index.size()) {
    std::vector<IndexSlot> grown(2 * shard->index.size());
    for (const IndexSlot& slot : shard->index)
      if (slot.entry != nullptr) place(&grown, slot);
    shard->index.swap(grown);
  }
  place(&shard->index, IndexSlot{entry->hash, entry});
  ++shard->entries;
}

bool EstimateCache::Lookup(std::string_view key, double* selectivity) {
  if (capacity_bytes_ == 0) return false;
  const uint64_t hash = HashBytes(key.data(), key.size());
  Shard& shard = ShardFor(hash);
  std::shared_lock lock(shard.mutex);
  Entry* entry = Find(shard, key, hash);
  if (entry == nullptr) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Stored only when clear, so a hot entry's line stays shared.
  if (!entry->referenced.load(std::memory_order_relaxed))
    entry->referenced.store(true, std::memory_order_relaxed);
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  *selectivity = entry->selectivity;
  return true;
}

void EstimateCache::Insert(std::string_view key, double selectivity) {
  if (capacity_bytes_ == 0) return;
  const uint64_t hash = HashBytes(key.data(), key.size());
  Shard& shard = ShardFor(hash);
  std::lock_guard lock(shard.mutex);
  if (Entry* entry = Find(shard, key, hash); entry != nullptr) {
    entry->selectivity = selectivity;
    entry->referenced.store(true, std::memory_order_relaxed);
    return;
  }
  // The new entry is not in the ring yet, so the hand cannot pick it.
  shard.bytes += EntryBytes(key.size());
  while (shard.bytes > shard_capacity_bytes_ && shard.entries > 0)
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
  // One allocation: the header, then the key's bytes (Entry::key()).
  void* memory = ::operator new(sizeof(Entry) + key.size());
  std::memcpy(static_cast<char*>(memory) + sizeof(Entry), key.data(),
              key.size());
  EntryPtr entry(new (memory) Entry{hash, selectivity, slot, key.size()});
  IndexInsert(&shard, entry.get());
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
  std::vector<IndexSlot>& index = shard->index;
  const size_t mask = index.size() - 1;
  size_t hole = entry->hash & mask;
  while (index[hole].entry != entry) hole = (hole + 1) & mask;
  // Backward shift: a later slot of the run moves into the hole when the
  // hole lies on its probe path (from its home slot up to it), so every
  // key stays reachable with no tombstones.
  for (size_t i = (hole + 1) & mask; index[i].entry != nullptr;
       i = (i + 1) & mask) {
    const size_t home = index[i].hash & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      index[hole] = index[i];
      hole = i;
    }
  }
  index[hole] = IndexSlot{};
  --shard->entries;
  shard->bytes -= EntryBytes(entry->key_size);
  shard->holes.push_back(entry->slot);
  shard->ring[entry->slot].reset();
}

void EstimateCache::Erase(std::string_view key) {
  const uint64_t hash = HashBytes(key.data(), key.size());
  Shard& shard = ShardFor(hash);
  std::lock_guard lock(shard.mutex);
  Entry* entry = Find(shard, key, hash);
  if (entry == nullptr) return;
  Remove(&shard, entry);
  ++shard.invalidations;
}

size_t EstimateCache::InvalidatePrefix(std::string_view prefix) {
  size_t erased = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard lock(shard.mutex);
    for (const EntryPtr& slot : shard.ring) {
      if (slot == nullptr || !slot->key().starts_with(prefix)) continue;
      Remove(&shard, slot.get());
      ++shard.invalidations;
      ++erased;
    }
    // An emptied ring starts over, so it holds no run of holes.
    if (shard.entries == 0) {
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
    std::fill(shard.index.begin(), shard.index.end(), IndexSlot{});
    shard.entries = 0;
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
    stats.entries += shard.entries;
    stats.bytes += shard.bytes;
  }
  return stats;
}

}  // namespace arecel::serve
