// The distributor: shards fleet-level work units across mrsc_serve
// processes and merges the answers deterministically.
//
// Design (nighthawk-style client/distributor split): the unit of
// distribution is a *slice* — one self-contained job request whose payload
// is a pure function of the fleet spec and the slice index (replicate i of
// an ensemble, point i of a rate sweep). Which shard answers a slice, in
// what order, after how many retries, is scheduling noise; the merged
// report is assembled from the slice results *in slice order* and reduced
// with the exact floating-point expressions the local runtime uses
// (runtime::reduce_species). That is the determinism contract:
//
//   merged output is bitwise-identical to a single-process run at any
//   shard count, under any injected failure pattern that still lets every
//   slice eventually succeed.
//
// Every request is wrapped in a resilience policy: per-request timeout,
// bounded retries with capped exponential backoff and seeded jitter
// (policy.hpp), optional hedging (a duplicate request to a second shard
// when the first is slow — safe because job payloads are idempotent by
// canonical-key construction), and overload-aware routing: a
// {"status":"rejected"} answer is backpressure, not an error, and demotes
// the shard exactly like a transport failure would.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fleet/policy.hpp"
#include "fleet/transport.hpp"

namespace mrsc::fleet {

struct FleetOptions {
  std::vector<Endpoint> shards;

  /// Worker threads pulling slices; 0 → 2 per shard.
  std::size_t concurrency = 0;

  /// Per-attempt timeout. An attempt that has not produced a full frame by
  /// then counts as a failure on every shard it touched.
  double request_timeout_ms = 10000.0;

  /// Total attempts per slice (first try included).
  std::size_t max_attempts = 4;

  BackoffPolicy backoff;

  /// Hedge delay: when > 0 and the primary has not answered after this
  /// many ms, send the same request to one other shard and take whichever
  /// answers first. At most one hedge fires per slice.
  double hedge_ms = 0.0;

  /// Test hook: replaces the real backoff sleep. Null → thread sleep.
  std::function<void(double ms)> sleep_hook;
};

/// Transport-layer diagnostics. Deliberately *not* part of any merged
/// report — they depend on timing and fault injection, the report does not.
struct FleetCounters {
  std::uint64_t attempts = 0;   ///< requests launched (hedges included)
  std::uint64_t retries = 0;    ///< attempts beyond the first, per slice
  std::uint64_t hedges = 0;     ///< hedge requests fired
  std::uint64_t rejections = 0; ///< overload/draining backpressure answers
  std::uint64_t failures = 0;   ///< transport failures (connect/read/EOF)
  std::uint64_t timeouts = 0;   ///< attempts that hit request_timeout_ms
  std::uint64_t probes = 0;     ///< quarantined shards granted a probe
};

class FleetClient {
 public:
  explicit FleetClient(FleetOptions options);

  /// Executes every request (slice i = requests[i]) and returns the
  /// response payloads in slice order, over `concurrency` (default two per
  /// shard) threads of one `runtime::BatchRunner::for_each_index`. Throws
  /// std::runtime_error when any slice exhausts its attempts; no slice
  /// starts after that.
  [[nodiscard]] std::vector<std::string> execute(
      const std::vector<std::string>& requests);

  /// One-off request through the full resilience policy (catalog, stats).
  [[nodiscard]] std::string request_once(const std::string& request);

  /// Sends `request` to every shard directly (no routing, single attempt
  /// with connect retry) — drain and per-shard stats. Unreachable shards
  /// yield a deterministic {"status":"error",...} entry.
  [[nodiscard]] std::vector<std::string> request_all(
      const std::string& request);

  [[nodiscard]] FleetCounters counters() const;
  [[nodiscard]] ShardHealth shard_state(std::size_t shard) const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

 private:
  struct Shard {
    Endpoint endpoint;
    HealthTracker health;
    std::atomic<int> outstanding{0};
    explicit Shard(Endpoint e) : endpoint(std::move(e)) {}
  };

  /// Picks the shard for the next request: least-outstanding healthy
  /// shard, then least-outstanding degraded shard (lowest index breaks
  /// ties), then a quarantined shard that has earned a probe; when
  /// everything is quarantined/probing, the lowest-index shard is forced —
  /// the fleet never deadlocks itself out of all capacity. `exclude` (< 0
  /// disables) keeps a hedge off the primary's shard; returns -1 only when
  /// exclusion leaves no candidate.
  [[nodiscard]] int route(int exclude);

  /// Runs one slice to a successful response or throws.
  [[nodiscard]] std::string execute_slice(std::size_t slice,
                                          const std::string& request);

  void sleep_ms(double ms) const;

  FleetOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  struct AtomicCounters {
    std::atomic<std::uint64_t> attempts{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> hedges{0};
    std::atomic<std::uint64_t> rejections{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> probes{0};
  };
  mutable AtomicCounters counters_;
};

// ---------------------------------------------------------------------------
// Fleet-level work units.

/// A sharded SSA ensemble: replicate i is the job
/// {kind:sim, design, method, seed:stream_seed(base_seed,i), t_end, omega,
///  record, opt} — the same per-replicate seeds the local ensemble runner
/// uses, which is why the merge can be bitwise-identical to it.
struct EnsembleSpec {
  std::string design = "counter";
  std::size_t replicates = 8;
  std::uint64_t base_seed = 1;
  std::string method = "nrm";
  double t_end = 3.0;
  double omega = 200.0;
  double record = 0.0;  ///< 0 = server default (t_end / 50)
  int opt = 0;
};

/// A sharded rate sweep: point i runs the design at omegas[i] with seed
/// stream_seed(base_seed, i).
struct SweepSpec {
  std::string design = "counter";
  std::vector<double> omegas;
  std::uint64_t base_seed = 1;
  std::string method = "nrm";
  double t_end = 3.0;
  double record = 0.0;
  int opt = 0;
};

/// Runs the ensemble across the fleet and returns the merged report: one
/// deterministic JSON document (per-species mean/stddev/min/max/quantiles
/// over all replicates, total SSA events as a cross-check oracle). Throws
/// std::invalid_argument on a spec the local registry rejects (bad usage),
/// std::runtime_error on fleet-level failure.
[[nodiscard]] std::string run_ensemble(FleetClient& fleet,
                                       const EnsembleSpec& spec);

/// Runs the sweep across the fleet; merged report lists the points in
/// omega order with their exact final states.
[[nodiscard]] std::string run_sweep(FleetClient& fleet,
                                    const SweepSpec& spec);

/// Fetches the scenario catalog over the wire ({"op":"catalog"}).
[[nodiscard]] std::string fetch_catalog(FleetClient& fleet);

}  // namespace mrsc::fleet
