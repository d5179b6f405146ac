// Compiled-design cache for the simulation service.
//
// Every sim and lint job names a design by its canonical registry spec plus
// a compile level. Resolving it (registry build + lowering passes) and
// compiling the engine form (`sim::CompiledSystem`) is a pure function of
// that pair, and on a small design it costs as much as the simulation that
// follows. The server therefore compiles each (design, opt) once and shares
// the read-only result across workers: a `CompiledDesign` is immutable
// after construction, so any number of jobs may run against it at once.
//
// Bounded like ResultCache, by entry count *and* by bytes — delay_chain(64)
// compiles to ~14 MB of dependency-graph CSR, so a count bound alone is not
// a memory bound. Both bounds are fixed constants (no flag): the cache only
// ever substitutes an object an identical cold build produces, so its size
// changes latency, never a response byte.
//
// Entries are handed out as shared_ptr: evicting an entry drops the cache's
// reference, and a job still running against it keeps it alive until the
// job finishes. Two workers that miss the same design at once both build
// it; the first insert wins and the loser's copy dies with its job.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "serve/cache.hpp"
#include "sim/engine/compiled_system.hpp"
#include "tools/builtin_designs.hpp"

namespace mrsc::serve {

/// One resolved design and its engine form.
struct CompiledDesign {
  /// Resolves `design` (a canonical registry spec) at compile level `opt`
  /// (0 or 1) and compiles its network. Throws std::invalid_argument for
  /// an unknown spec. This is the only way serve builds a design, cached or
  /// not.
  CompiledDesign(const std::string& design, int opt);

  tools::BuiltDesign built;  ///< network, DesignInfo, composition
  /// The engine form; its footprint_bytes() is what the cache charges.
  sim::CompiledSystem system;
};

class DesignCache {
 public:
  static constexpr std::size_t kCapacityEntries = 32;
  static constexpr std::size_t kCapacityBytes = 64u << 20;

  explicit DesignCache(std::size_t capacity_entries = kCapacityEntries,
                       std::size_t capacity_bytes = kCapacityBytes)
      : lru_(capacity_entries, capacity_bytes) {}

  /// Returns the compiled (design, opt), counting a hit; on a miss builds
  /// it outside the lock, inserts it (evicting LRU entries until both
  /// bounds hold) and returns it. A design larger than the byte budget is
  /// built and returned but not kept.
  [[nodiscard]] std::shared_ptr<const CompiledDesign> get(
      const std::string& design, int opt);

  /// hits / misses / evictions / entries / bytes and the two capacities.
  [[nodiscard]] CacheStats stats() const;

 private:
  mutable std::mutex mutex_;
  BoundedLru<std::shared_ptr<const CompiledDesign>> lru_;
};

}  // namespace mrsc::serve
