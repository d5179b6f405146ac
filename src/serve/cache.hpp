// Keyed result cache for the simulation service.
//
// The composed-design workflows the service exists for (lint + re-simulate
// after every composition tweak) resubmit byte-identical requests
// constantly; a deterministic job is a pure function of its canonical key
// (dispatcher.hpp), so the response bytes can be replayed verbatim. The
// cache is a plain LRU over canonical-key -> response-payload with hit /
// miss / eviction counters for the stats endpoint. Bounded by entry count
// *and* total payload bytes — a burst of huge trajectory-bearing responses
// must not grow the server without bound.
//
// Thread safety: all methods lock; get() refreshes recency. Determinism:
// the cache can only ever substitute bytes that an identical cold run
// produced, so hit-vs-miss is invisible to clients (asserted in
// tests/test_serve.cpp).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace mrsc::serve {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t capacity_entries = 0;
  std::size_t capacity_bytes = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// LRU map from string keys to values, bounded by entry count *and* by the
/// sum of per-entry byte charges; both caches of the service are built on
/// it. Not synchronized: each cache holds its own mutex around it. A
/// stored value is never replaced, because every value the service caches
/// is a pure function of its key.
template <class Value>
class BoundedLru {
 public:
  BoundedLru(std::size_t capacity_entries, std::size_t capacity_bytes)
      : capacity_entries_(capacity_entries),
        capacity_bytes_(capacity_bytes) {}

  /// The stored value, refreshed to most recent, counting a hit; nullptr
  /// and a miss otherwise.
  [[nodiscard]] const Value* get(const std::string& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->value;
  }

  /// Stores `value` unless `key` is present, refreshes the key to most
  /// recent, then evicts LRU entries until both bounds hold. Returns the
  /// stored value (the earlier one when the key was present), or nullptr
  /// when `bytes` alone exceeds the byte bound and nothing was stored.
  const Value* put(const std::string& key, Value value, std::size_t bytes) {
    if (capacity_entries_ == 0 || bytes > capacity_bytes_) return nullptr;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return &it->second->value;
    }
    lru_.push_front(Entry{key, std::move(value), bytes});
    index_[key] = lru_.begin();
    bytes_ += bytes;
    // The new front entry fits both bounds on its own, so it survives.
    while (lru_.size() > capacity_entries_ || bytes_ > capacity_bytes_) {
      const Entry& victim = lru_.back();
      bytes_ -= victim.bytes;
      index_.erase(victim.key);
      lru_.pop_back();
      ++evictions_;
    }
    return &lru_.front().value;
  }

  [[nodiscard]] CacheStats stats() const {
    CacheStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    stats.entries = lru_.size();
    stats.bytes = bytes_;
    stats.capacity_entries = capacity_entries_;
    stats.capacity_bytes = capacity_bytes_;
    return stats;
  }

 private:
  struct Entry {
    std::string key;
    Value value;
    std::size_t bytes = 0;
  };

  const std::size_t capacity_entries_;
  const std::size_t capacity_bytes_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, typename std::list<Entry>::iterator> index_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

class ResultCache {
 public:
  /// capacity_entries == 0 disables caching entirely (every get is a miss,
  /// every put a no-op) — used by --cache 0 for A/B runs.
  ResultCache(std::size_t capacity_entries, std::size_t capacity_bytes)
      : lru_(capacity_entries, capacity_bytes) {}

  /// Returns the cached response and counts a hit; counts a miss otherwise.
  [[nodiscard]] std::optional<std::string> get(const std::string& key);

  /// Inserts (an existing key keeps its identical bytes) and refreshes,
  /// then evicts LRU entries until both bounds hold. A value larger than
  /// capacity_bytes is simply not cached.
  void put(const std::string& key, const std::string& value);

  [[nodiscard]] CacheStats stats() const;

 private:
  mutable std::mutex mutex_;
  BoundedLru<std::string> lru_;
};

}  // namespace mrsc::serve
