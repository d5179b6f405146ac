// Server-side request counters and per-kind latency histograms.
//
// Latencies land in fixed log2-spaced buckets (1 µs … ~1 h, 4 buckets per
// octave) so recording is a couple of arithmetic ops under a short lock and
// the stats endpoint can serve p50/p90/p99 estimates without keeping every
// sample. Bucket interpolation bounds the percentile error to the bucket
// width (~19% relative), which is fine for a dashboard; the load generator
// keeps exact client-side samples for the committed benchmark numbers.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace mrsc::serve {

class LatencyHistogram {
 public:
  // 4 buckets per factor-of-2 from 1 µs: bucket i covers
  // [1e-6 * 2^(i/4), 1e-6 * 2^((i+1)/4)). 128 buckets tops out above 1 h.
  static constexpr std::size_t kBuckets = 128;

  void record(double seconds);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double total_seconds() const { return total_seconds_; }
  [[nodiscard]] double max_seconds() const { return max_seconds_; }

  /// Percentile estimate in seconds (p in [0,1]), linearly interpolated
  /// inside the winning bucket. 0 when empty.
  [[nodiscard]] double percentile(double p) const;

 private:
  [[nodiscard]] static double bucket_floor(std::size_t index);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double total_seconds_ = 0.0;
  double max_seconds_ = 0.0;
};

/// Everything the stats endpoint reports about one job kind.
struct KindStats {
  std::string kind;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t cache_hits = 0;
  LatencyHistogram latency;  ///< hits and misses both land here
};

/// Aggregated counters for the whole server. One mutex is plenty: the
/// per-request critical sections are tens of nanoseconds next to
/// millisecond-scale jobs.
class ServerStats {
 public:
  explicit ServerStats(std::vector<std::string> kinds);

  void record_job(const std::string& kind, bool ok, bool cache_hit,
                  double latency_seconds);
  void record_overload();
  void record_protocol_error();
  /// A framing violation (torn frame, garbage length prefix, vanished peer)
  /// that cost one connection but never a request: distinct from
  /// protocol_errors, which count well-framed but invalid payloads.
  void record_connection_error();
  /// A job request rejected because the server is draining (see the `drain`
  /// op in docs/SERVE.md).
  void record_drain_rejection();

  /// The `{requests, latency}` sections of the stats response
  /// (deterministic field order; values obviously run-dependent).
  [[nodiscard]] util::json::Value to_value() const;

 private:
  mutable std::mutex mutex_;
  std::vector<KindStats> kinds_;
  std::uint64_t received_ = 0;
  std::uint64_t overload_rejected_ = 0;
  std::uint64_t drain_rejected_ = 0;
  std::uint64_t protocol_errors_ = 0;
  std::uint64_t connection_errors_ = 0;
};

}  // namespace mrsc::serve
