// Fault-injecting TCP proxy for chaos-testing the fleet.
//
// The proxy sits between a fleet client and one upstream shard and makes a
// *seeded* per-connection fault decision, so a chaos run is replayable:
// connection k (in accept order) draws its fate from
// Rng(stream_seed(seed, k)) against the configured fault probabilities.
//
//   drop        close the client connection immediately on accept
//   delay       forward normally, but only after delay_ms of silence
//   truncate    relay the upstream response but cut the stream mid-frame
//               (after a few bytes of the length header/payload), then
//               close — exercises the client's mid-frame EOF handling
//   blackhole   read and discard the client's bytes, forward nothing,
//               hold the connection open — exercises timeouts and hedging
//
// The decision is cumulative: u < drop → drop, u < drop+delay → delay, and
// so on; anything past the sum is a clean relay. The proxy is a library
// class (in-process tests) with a thin CLI wrapper (mrsc_chaosproxy) for
// the shell harness.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fleet/transport.hpp"
#include "serve/protocol.hpp"

namespace mrsc::fleet {

struct ChaosFaults {
  double drop = 0.0;
  double delay = 0.0;
  double delay_ms = 50.0;
  double truncate = 0.0;
  double blackhole = 0.0;
};

/// What the seeded draw decided for one connection (exposed for tests).
enum class FaultKind : std::uint8_t {
  kClean,
  kDrop,
  kDelay,
  kTruncate,
  kBlackhole,
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// The pure decision function: connection `index` under `faults` and
/// `seed`. Deterministic; the proxy calls exactly this.
[[nodiscard]] FaultKind decide_fault(const ChaosFaults& faults,
                                     std::uint64_t seed,
                                     std::uint64_t index);

class ChaosProxy {
 public:
  // Constructor/destructor live out of line: Link is incomplete here and
  // both need to instantiate the links_ vector's destructor.
  ChaosProxy(Endpoint upstream, ChaosFaults faults, std::uint64_t seed);
  ~ChaosProxy();

  /// Binds host:port (0 = ephemeral) and starts accepting. Throws
  /// std::runtime_error on bind failure.
  void start(const std::string& host = "127.0.0.1", std::uint16_t port = 0);
  void stop();

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Connections accepted so far (== the next connection's fault index).
  [[nodiscard]] std::uint64_t connections() const {
    return connections_.load();
  }

 private:
  struct Link;
  void accept_loop();
  void relay(Link& link, FaultKind fault);

  Endpoint upstream_;
  ChaosFaults faults_;
  std::uint64_t seed_;

  serve::Socket listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> connections_{0};
  std::mutex links_mutex_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace mrsc::fleet
