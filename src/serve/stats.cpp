#include "serve/stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/json.hpp"

namespace mrsc::serve {

namespace {

using util::json::Value;

std::size_t bucket_index(double seconds) {
  if (seconds <= 1e-6) return 0;
  const double octaves = std::log2(seconds / 1e-6);
  const auto index = static_cast<std::size_t>(octaves * 4.0);
  return std::min(index, LatencyHistogram::kBuckets - 1);
}

}  // namespace

double LatencyHistogram::bucket_floor(std::size_t index) {
  return 1e-6 * std::exp2(static_cast<double>(index) / 4.0);
}

void LatencyHistogram::record(double seconds) {
  seconds = std::max(seconds, 0.0);
  ++buckets_[bucket_index(seconds)];
  ++count_;
  total_seconds_ += seconds;
  max_seconds_ = std::max(max_seconds_, seconds);
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count_);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const auto above = static_cast<double>(below + buckets_[i]);
    if (above >= target) {
      const double inside =
          buckets_[i] == 0
              ? 0.0
              : (target - static_cast<double>(below)) /
                    static_cast<double>(buckets_[i]);
      const double lo = bucket_floor(i);
      const double hi = bucket_floor(i + 1);
      return lo + std::clamp(inside, 0.0, 1.0) * (hi - lo);
    }
    below += buckets_[i];
  }
  return max_seconds_;
}

ServerStats::ServerStats(std::vector<std::string> kinds) {
  kinds_.reserve(kinds.size());
  for (std::string& kind : kinds) {
    KindStats entry;
    entry.kind = std::move(kind);
    kinds_.push_back(std::move(entry));
  }
}

void ServerStats::record_job(const std::string& kind, bool ok, bool cache_hit,
                             double latency_seconds) {
  std::lock_guard lock(mutex_);
  ++received_;
  for (KindStats& entry : kinds_) {
    if (entry.kind != kind) continue;
    if (ok) {
      ++entry.ok;
    } else {
      ++entry.failed;
    }
    if (cache_hit) ++entry.cache_hits;
    entry.latency.record(latency_seconds);
    return;
  }
}

void ServerStats::record_overload() {
  std::lock_guard lock(mutex_);
  ++received_;
  ++overload_rejected_;
}

void ServerStats::record_protocol_error() {
  std::lock_guard lock(mutex_);
  ++protocol_errors_;
}

void ServerStats::record_connection_error() {
  std::lock_guard lock(mutex_);
  ++connection_errors_;
}

void ServerStats::record_drain_rejection() {
  std::lock_guard lock(mutex_);
  ++received_;
  ++drain_rejected_;
}

Value ServerStats::to_value() const {
  std::lock_guard lock(mutex_);
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  for (const KindStats& entry : kinds_) {
    ok += entry.ok;
    failed += entry.failed;
  }
  Value requests;
  requests.set("received", Value(received_));
  requests.set("ok", Value(ok));
  requests.set("failed", Value(failed));
  requests.set("overload_rejected", Value(overload_rejected_));
  requests.set("drain_rejected", Value(drain_rejected_));
  requests.set("protocol_errors", Value(protocol_errors_));
  requests.set("connection_errors", Value(connection_errors_));
  Value latency;
  latency.make_object();
  for (const KindStats& entry : kinds_) {
    const LatencyHistogram& h = entry.latency;
    Value row;
    row.set("count", Value(h.count()));
    row.set("ok", Value(entry.ok));
    row.set("failed", Value(entry.failed));
    row.set("cache_hits", Value(entry.cache_hits));
    row.set("mean_ms",
            Value(h.count() == 0 ? 0.0
                                 : 1e3 * h.total_seconds() /
                                       static_cast<double>(h.count())));
    row.set("p50_ms", Value(1e3 * h.percentile(0.50)));
    row.set("p90_ms", Value(1e3 * h.percentile(0.90)));
    row.set("p99_ms", Value(1e3 * h.percentile(0.99)));
    row.set("max_ms", Value(1e3 * h.max_seconds()));
    latency.set(entry.kind, std::move(row));
  }
  Value out;
  out.set("requests", std::move(requests));
  out.set("latency", std::move(latency));
  return out;
}

}  // namespace mrsc::serve
