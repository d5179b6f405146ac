// Resilience policy math for the distributor fleet: deterministic backoff
// schedules and the per-shard health state machine.
//
// Everything here is pure policy — no sockets, no clocks. Delays are a
// function of (policy, slice, attempt) so a replayed run produces the same
// schedule; health transitions are a function of the observed event
// sequence and fixed integer thresholds. That is what makes the fleet's
// retry behaviour table-testable (tests/test_fleet.cpp) instead of
// "usually converges".
#pragma once

#include <cstdint>
#include <mutex>

namespace mrsc::fleet {

/// Capped exponential backoff with deterministic jitter. Attempt k (0-based,
/// counting completed attempts) waits
///
///   min(cap_ms, base_ms * 2^k) * (0.5 + 0.5 * u)
///
/// where u in [0,1) comes from a generator seeded by (jitter_seed, slice,
/// attempt) — full decorrelation across slices without shared mutable
/// state, same trick as the ensemble's stream seeds.
struct BackoffPolicy {
  double base_ms = 10.0;
  double cap_ms = 500.0;
  std::uint64_t jitter_seed = 1;
};

[[nodiscard]] double backoff_delay_ms(const BackoffPolicy& policy,
                                      std::uint64_t slice,
                                      std::uint64_t attempt);

/// Shard health as the router sees it.
///
///   healthy ──(kDegradeAfter consecutive bad events)──▶ degraded
///   degraded ─(kQuarantineAfter consecutive bad)──────▶ quarantined
///   quarantined ─(skipped kProbeAfter times)──────────▶ probing
///   probing ──(success)──▶ healthy    ──(failure)──▶ quarantined
///
/// "Bad event" is a transport failure, a timeout, or an overload/draining
/// rejection — everything that says "route elsewhere". Any success resets
/// the counter and the state.
enum class ShardHealth : std::uint8_t {
  kHealthy,
  kDegraded,     ///< still routable, but only when no healthy shard exists
  kQuarantined,  ///< skipped by routing until it earns a probe
  kProbing,      ///< one in-flight trial request decides its fate
};

[[nodiscard]] const char* to_string(ShardHealth health);

/// Per-shard health tracker; self-locked so router threads and request
/// threads can feed it concurrently.
class HealthTracker {
 public:
  /// Transition thresholds of the diagram above: consecutive bad events
  /// to degrade and to quarantine, routing skips to earn a probe.
  static constexpr std::uint32_t kDegradeAfter = 2;
  static constexpr std::uint32_t kQuarantineAfter = 4;
  static constexpr std::uint32_t kProbeAfter = 8;

  [[nodiscard]] ShardHealth state() const;

  /// A request completed with status "ok": whatever the history, the shard
  /// is healthy now.
  void record_success();
  /// Transport failure or timeout.
  void record_failure();
  /// Deterministic overload/draining rejection — the shard is alive but
  /// shedding load; for routing purposes that is the same "go elsewhere".
  void record_overload();

  /// The router calls this each time it skips a quarantined shard. Every
  /// kProbeAfter skips the shard earns one probe: the tracker flips to
  /// kProbing and returns true, telling the router to send this one
  /// request there after all.
  [[nodiscard]] bool consider_probe();

 private:
  void record_bad();

  mutable std::mutex mutex_;
  ShardHealth state_ = ShardHealth::kHealthy;
  std::uint32_t consecutive_bad_ = 0;
  std::uint32_t skips_ = 0;
};

}  // namespace mrsc::fleet
