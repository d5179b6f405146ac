#include "fleet/policy.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace mrsc::fleet {

double backoff_delay_ms(const BackoffPolicy& policy, std::uint64_t slice,
                        std::uint64_t attempt) {
  double delay = policy.base_ms;
  for (std::uint64_t k = 0; k < attempt && delay < policy.cap_ms; ++k) {
    delay *= 2.0;
  }
  delay = std::min(delay, policy.cap_ms);
  util::Rng rng(util::Rng::stream_seed(
      util::Rng::stream_seed(policy.jitter_seed, slice), attempt));
  return delay * (0.5 + 0.5 * rng.uniform());
}

const char* to_string(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kDegraded:
      return "degraded";
    case ShardHealth::kQuarantined:
      return "quarantined";
    case ShardHealth::kProbing:
      return "probing";
  }
  return "unknown";
}

ShardHealth HealthTracker::state() const {
  std::lock_guard lock(mutex_);
  return state_;
}

void HealthTracker::record_success() {
  std::lock_guard lock(mutex_);
  state_ = ShardHealth::kHealthy;
  consecutive_bad_ = 0;
  skips_ = 0;
}

void HealthTracker::record_bad() {
  std::lock_guard lock(mutex_);
  ++consecutive_bad_;
  if (state_ == ShardHealth::kProbing) {
    // The probe itself failed: straight back to quarantine, counter reset
    // so the next quarantine stint starts fresh.
    state_ = ShardHealth::kQuarantined;
    skips_ = 0;
    return;
  }
  if (consecutive_bad_ >= kQuarantineAfter) {
    state_ = ShardHealth::kQuarantined;
  } else if (consecutive_bad_ >= kDegradeAfter) {
    state_ = ShardHealth::kDegraded;
  }
}

void HealthTracker::record_failure() { record_bad(); }

void HealthTracker::record_overload() { record_bad(); }

bool HealthTracker::consider_probe() {
  std::lock_guard lock(mutex_);
  if (state_ != ShardHealth::kQuarantined) return false;
  ++skips_;
  if (skips_ < kProbeAfter) return false;
  skips_ = 0;
  state_ = ShardHealth::kProbing;
  return true;
}

}  // namespace mrsc::fleet
