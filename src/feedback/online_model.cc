#include "feedback/online_model.h"

#include <algorithm>
#include <cmath>

namespace arecel::feedback {

namespace {

// Weight floor: an exact feature match must dominate every non-zero
// distance without dividing by zero.
constexpr double kDistanceEpsilon = 1e-6;

}  // namespace

double SelectivityFloor(size_t rows) {
  return rows == 0 ? 1e-6 : 0.5 / static_cast<double>(rows);
}

OnlineSubspaceModel::OnlineSubspaceModel(FeedbackOptions options)
    : options_(options) {
  options_.neighbors = std::max<size_t>(1, options_.neighbors);
  options_.max_entries_per_subspace =
      std::max<size_t>(1, options_.max_entries_per_subspace);
  options_.max_subspaces = std::max<size_t>(1, options_.max_subspaces);
}

void OnlineSubspaceModel::BindSchema(const Table& table) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
  spans_.reserve(table.num_cols());
  for (size_t c = 0; c < table.num_cols(); ++c) {
    const Column& column = table.column(c);
    ColumnSpan span;
    if (!column.domain.empty()) {
      span.lo = column.min();
      span.hi = column.max();
    }
    span.categorical = column.categorical;
    spans_.push_back(span);
  }
}

bool OnlineSubspaceModel::bound() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !spans_.empty();
}

bool OnlineSubspaceModel::VacuousPredicate(const Predicate& p) const {
  if (p.column < 0 || static_cast<size_t>(p.column) >= spans_.size())
    return false;
  const ColumnSpan& span = spans_[static_cast<size_t>(p.column)];
  return p.lo <= span.lo && p.hi >= span.hi;
}

std::string OnlineSubspaceModel::SubspaceFingerprint(
    const Query& query) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return FingerprintLocked(query);
}

std::string OnlineSubspaceModel::FingerprintLocked(const Query& query) const {
  std::vector<Predicate> sorted;
  sorted.reserve(query.predicates.size());
  for (const Predicate& p : query.predicates)
    if (!VacuousPredicate(p)) sorted.push_back(p);
  std::sort(sorted.begin(), sorted.end(),
            [](const Predicate& a, const Predicate& b) {
              if (a.column != b.column) return a.column < b.column;
              if (a.lo != b.lo) return a.lo < b.lo;
              return a.hi < b.hi;
            });
  std::string key;
  key.reserve(sorted.size() * (sizeof(int32_t) + 1));
  for (const Predicate& p : sorted) {
    const int32_t column = p.column;
    key.append(reinterpret_cast<const char*>(&column), sizeof(column));
    key.push_back(p.is_equality() ? 'e' : 'r');
  }
  return key;
}

std::vector<double> OnlineSubspaceModel::Features(const Query& query) const {
  // Caller holds mutex_. Same canonical order as the fingerprint: sorted
  // non-vacuous predicates, two features (normalized lo, hi) each.
  std::vector<Predicate> sorted;
  sorted.reserve(query.predicates.size());
  for (const Predicate& p : query.predicates)
    if (!VacuousPredicate(p)) sorted.push_back(p);
  std::sort(sorted.begin(), sorted.end(),
            [](const Predicate& a, const Predicate& b) {
              if (a.column != b.column) return a.column < b.column;
              if (a.lo != b.lo) return a.lo < b.lo;
              return a.hi < b.hi;
            });
  std::vector<double> features;
  features.reserve(sorted.size() * 2);
  for (const Predicate& p : sorted) {
    double lo = 0.0, hi = 1.0;
    if (p.column >= 0 && static_cast<size_t>(p.column) < spans_.size()) {
      const ColumnSpan& span = spans_[static_cast<size_t>(p.column)];
      const double width = span.hi - span.lo;
      if (width > 0) {
        lo = (std::clamp(p.lo, span.lo, span.hi) - span.lo) / width;
        hi = (std::clamp(p.hi, span.lo, span.hi) - span.lo) / width;
      } else {
        lo = hi = 0.0;
      }
    }
    features.push_back(lo);
    features.push_back(hi);
  }
  return features;
}

void OnlineSubspaceModel::Observe(const Query& query, double target,
                                  uint64_t version) {
  if (!std::isfinite(target)) return;  // refuse to learn garbage.
  std::lock_guard<std::mutex> lock(mutex_);
  target = std::clamp(target, -options_.max_abs_target,
                      options_.max_abs_target);
  const std::string key = FingerprintLocked(query);
  Subspace& subspace = subspaces_[key];
  ++seq_;
  Entry entry;
  entry.features = Features(query);
  entry.target = target;
  entry.version = version;
  entry.seq = seq_;
  if (subspace.ring.size() < options_.max_entries_per_subspace) {
    subspace.ring.push_back(std::move(entry));
    subspace.next = subspace.ring.size() % options_.max_entries_per_subspace;
  } else {
    subspace.ring[subspace.next] = std::move(entry);
    subspace.next = (subspace.next + 1) % subspace.ring.size();
    ++stats_.evicted_entries;
  }
  if (subspace.ema_valid) {
    subspace.ema =
        options_.decay * target + (1.0 - options_.decay) * subspace.ema;
  } else {
    subspace.ema = target;
    subspace.ema_valid = true;
  }
  subspace.last_touch = seq_;
  ++stats_.observed;
  EvictSubspacesLocked();
}

void OnlineSubspaceModel::EvictSubspacesLocked() {
  while (subspaces_.size() > options_.max_subspaces) {
    auto victim = subspaces_.begin();
    for (auto it = subspaces_.begin(); it != subspaces_.end(); ++it)
      if (it->second.last_touch < victim->second.last_touch) victim = it;
    subspaces_.erase(victim);
    ++stats_.evicted_subspaces;
  }
}

bool OnlineSubspaceModel::Predict(const Query& query, double* target) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string key = FingerprintLocked(query);
  auto it = subspaces_.find(key);
  if (it == subspaces_.end() || it->second.ring.empty()) {
    ++stats_.misses;
    return false;
  }
  const Subspace& subspace = it->second;
  const std::vector<double> features = Features(query);

  struct Scored {
    double distance;
    uint64_t seq;
    double target;
  };
  std::vector<Scored> scored;
  scored.reserve(subspace.ring.size());
  for (const Entry& entry : subspace.ring) {
    double d2 = 0.0;
    const size_t n = std::min(entry.features.size(), features.size());
    for (size_t i = 0; i < n; ++i) {
      const double diff = entry.features[i] - features[i];
      d2 += diff * diff;
    }
    scored.push_back({std::sqrt(d2), entry.seq, entry.target});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a,
                                             const Scored& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.seq > b.seq;  // prefer the newer observation on exact ties.
  });
  if (scored.front().distance > options_.trust_radius) {
    ++stats_.misses;
    return false;
  }
  const size_t k = std::min(options_.neighbors, scored.size());
  double weight_sum = 0.0, weighted = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const double w = 1.0 / (kDistanceEpsilon + scored[i].distance);
    weight_sum += w;
    weighted += w * scored[i].target;
  }
  double prediction = weighted / weight_sum;
  if (subspace.ema_valid) {
    // Distance-aware blend: an exact repeat trusts its own remembered truth
    // fully (blend 0); the subspace-wide EMA only asserts itself as the
    // nearest neighbour recedes toward the trust radius. A fixed blend
    // would pull even a distance-0 repeat toward the subspace average,
    // which inflates q-error whenever one subspace spans very different
    // selectivities.
    const double ratio =
        options_.trust_radius > 0
            ? scored.front().distance / options_.trust_radius
            : 0.0;
    const double blend = options_.ema_blend * std::min(1.0, ratio);
    prediction = (1.0 - blend) * prediction + blend * subspace.ema;
  }
  *target = prediction;
  ++stats_.predictions;
  return true;
}

size_t OnlineSubspaceModel::InvalidateOlderThan(uint64_t min_version) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t dropped = 0;
  for (auto it = subspaces_.begin(); it != subspaces_.end();) {
    Subspace& subspace = it->second;
    std::vector<Entry> survivors;
    survivors.reserve(subspace.ring.size());
    for (Entry& entry : subspace.ring) {
      if (entry.version >= min_version)
        survivors.push_back(std::move(entry));
      else
        ++dropped;
    }
    if (survivors.empty()) {
      it = subspaces_.erase(it);
      continue;
    }
    if (survivors.size() != subspace.ring.size()) {
      // Rebuild the ring in insertion order and replay the EMA over the
      // survivors, exactly as if only they had ever been observed —
      // deterministic, and stale truths leave no residue.
      std::sort(survivors.begin(), survivors.end(),
                [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
      subspace.ema_valid = false;
      for (const Entry& entry : survivors) {
        if (subspace.ema_valid) {
          subspace.ema = options_.decay * entry.target +
                         (1.0 - options_.decay) * subspace.ema;
        } else {
          subspace.ema = entry.target;
          subspace.ema_valid = true;
        }
      }
      subspace.ring = std::move(survivors);
      subspace.next =
          subspace.ring.size() % options_.max_entries_per_subspace;
    }
    ++it;
  }
  stats_.invalidated += dropped;
  return dropped;
}

void OnlineSubspaceModel::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  subspaces_.clear();
  seq_ = 0;
}

FeedbackModelStats OnlineSubspaceModel::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  FeedbackModelStats stats = stats_;
  stats.subspaces = subspaces_.size();
  stats.entries = 0;
  for (const auto& [key, subspace] : subspaces_)
    stats.entries += subspace.ring.size();
  return stats;
}

size_t OnlineSubspaceModel::SizeBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t bytes = sizeof(*this) + spans_.size() * sizeof(ColumnSpan);
  for (const auto& [key, subspace] : subspaces_) {
    bytes += key.size() + sizeof(Subspace);
    for (const Entry& entry : subspace.ring)
      bytes += sizeof(Entry) + entry.features.size() * sizeof(double);
  }
  return bytes;
}

bool OnlineSubspaceModel::Serialize(ByteWriter* writer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  writer->U32(0xFEEDBAC1);
  writer->U64(options_.neighbors);
  writer->U64(options_.max_entries_per_subspace);
  writer->U64(options_.max_subspaces);
  writer->F64(options_.decay);
  writer->F64(options_.ema_blend);
  writer->F64(options_.max_abs_target);
  writer->F64(options_.trust_radius);
  writer->U64(spans_.size());
  for (const ColumnSpan& span : spans_) {
    writer->F64(span.lo);
    writer->F64(span.hi);
    writer->U32(span.categorical ? 1 : 0);
  }
  writer->U64(seq_);
  writer->U64(subspaces_.size());
  for (const auto& [key, subspace] : subspaces_) {
    writer->Str(key);
    writer->U64(subspace.ring.size());
    for (const Entry& entry : subspace.ring) {
      writer->Doubles(entry.features);
      writer->F64(entry.target);
      writer->U64(entry.version);
      writer->U64(entry.seq);
    }
    writer->U64(subspace.next);
    writer->F64(subspace.ema);
    writer->U32(subspace.ema_valid ? 1 : 0);
    writer->U64(subspace.last_touch);
  }
  return true;
}

bool OnlineSubspaceModel::Deserialize(ByteReader* reader) {
  std::lock_guard<std::mutex> lock(mutex_);
  uint32_t magic = 0;
  if (!reader->U32(&magic) || magic != 0xFEEDBAC1) return false;
  uint64_t neighbors = 0, entries_cap = 0, subspaces_cap = 0;
  if (!reader->U64(&neighbors) || !reader->U64(&entries_cap) ||
      !reader->U64(&subspaces_cap))
    return false;
  FeedbackOptions options;
  if (!reader->F64(&options.decay) || !reader->F64(&options.ema_blend) ||
      !reader->F64(&options.max_abs_target) ||
      !reader->F64(&options.trust_radius))
    return false;
  options.neighbors = static_cast<size_t>(neighbors);
  options.max_entries_per_subspace = static_cast<size_t>(entries_cap);
  options.max_subspaces = static_cast<size_t>(subspaces_cap);
  if (options.neighbors == 0 || options.max_entries_per_subspace == 0 ||
      options.max_subspaces == 0)
    return false;

  uint64_t span_count = 0;
  if (!reader->U64(&span_count)) return false;
  std::vector<ColumnSpan> spans(static_cast<size_t>(span_count));
  for (ColumnSpan& span : spans) {
    uint32_t categorical = 0;
    if (!reader->F64(&span.lo) || !reader->F64(&span.hi) ||
        !reader->U32(&categorical))
      return false;
    span.categorical = categorical != 0;
  }
  uint64_t seq = 0, subspace_count = 0;
  if (!reader->U64(&seq) || !reader->U64(&subspace_count)) return false;

  std::map<std::string, Subspace> subspaces;
  for (uint64_t s = 0; s < subspace_count; ++s) {
    std::string key;
    uint64_t ring_size = 0;
    if (!reader->Str(&key) || !reader->U64(&ring_size)) return false;
    if (ring_size > entries_cap) return false;
    Subspace subspace;
    subspace.ring.resize(static_cast<size_t>(ring_size));
    for (Entry& entry : subspace.ring) {
      if (!reader->Doubles(&entry.features) || !reader->F64(&entry.target) ||
          !reader->U64(&entry.version) || !reader->U64(&entry.seq))
        return false;
    }
    uint64_t next = 0, last_touch = 0;
    uint32_t ema_valid = 0;
    if (!reader->U64(&next) || !reader->F64(&subspace.ema) ||
        !reader->U32(&ema_valid) || !reader->U64(&last_touch))
      return false;
    if (next >= std::max<uint64_t>(1, entries_cap) && next != 0) return false;
    subspace.next = static_cast<size_t>(next);
    subspace.ema_valid = ema_valid != 0;
    subspace.last_touch = last_touch;
    subspaces[std::move(key)] = std::move(subspace);
  }

  options_ = options;
  spans_ = std::move(spans);
  seq_ = seq;
  subspaces_ = std::move(subspaces);
  stats_ = FeedbackModelStats{};
  return true;
}

}  // namespace arecel::feedback
