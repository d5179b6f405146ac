// Long-running simulation service: admission control, cache, worker pool.
//
// Architecture (nighthawk-style client/distributor split, scaled to one
// process): an accept thread hands each connection to its own reader
// thread; readers validate requests, consult the result cache, and submit
// misses to a bounded `runtime::ThreadPool`. Admission is an exact counter
// of admitted-but-unfinished jobs — when it reaches workers +
// queue_capacity the server answers `{"status":"rejected","reason":
// "overload"}` immediately instead of buffering without bound. Responses
// travel back on the same connection, strictly request-ordered (clients
// that want concurrency open more connections, as mrsc_loadgen does).
//
// Shutdown: stop() flips the stopping flag, cancels every in-flight
// BatchRunner cooperatively, wakes sleep jobs, shuts down all sockets, and
// joins every thread. Queued jobs still produce (cancelled-)responses —
// nothing is silently dropped, mirroring the ThreadPool drain contract.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "serve/cache.hpp"
#include "serve/design_cache.hpp"
#include "serve/dispatcher.hpp"
#include "serve/protocol.hpp"
#include "serve/stats.hpp"

namespace mrsc::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 binds an ephemeral port (see Server::port)
  std::size_t workers = 0;  ///< 0 selects the hardware concurrency
  /// Jobs admitted beyond the workers before overload rejection kicks in.
  std::size_t queue_capacity = 64;
  std::size_t cache_entries = 256;
  std::size_t cache_bytes = 64u << 20;
  std::size_t max_connections = 64;
  /// Operator-assigned shard name, echoed by health/stats so a fleet
  /// operator can tell which process answered. Never part of any job
  /// payload (the byte-identity contract forbids it).
  std::string shard_id;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the accept thread. Throws
  /// std::runtime_error when the address cannot be bound.
  void start();

  /// Cooperative full shutdown; idempotent, callable from any thread
  /// (the CLI calls it from a signal-watcher thread).
  void stop();

  /// Enters drain mode (also reachable over the wire via the `drain` op):
  /// subsequent job requests are answered with the deterministic
  /// {"status":"rejected","reason":"draining"} while in-flight jobs finish
  /// and stats/health/ping/catalog stay available. One-way; a drained
  /// shard is restarted, not resumed.
  void drain() { draining_.store(true); }
  [[nodiscard]] bool draining() const { return draining_.load(); }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool running() const { return running_.load(); }

  /// The exact payload the `stats` op returns (the CLI prints it on
  /// shutdown so every run ends with a machine-readable summary).
  [[nodiscard]] std::string stats_payload() const;

 private:
  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(Connection& connection);
  [[nodiscard]] std::string handle_request(const std::string& payload);
  [[nodiscard]] std::string handle_job(const json::Value& request);
  [[nodiscard]] std::string health_payload() const;
  void reap_finished_connections();

  ServerOptions options_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  ResultCache cache_;
  /// Compiled designs shared by every sim/lint job; reached through hooks_.
  DesignCache designs_;
  ServerStats stats_;
  DispatchHooks hooks_;

  Socket listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::chrono::steady_clock::time_point started_at_{};

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  /// Admitted-but-unfinished jobs; the exact admission-control bound.
  std::mutex admission_mutex_;
  std::size_t admitted_ = 0;

  /// In-flight BatchRunners, cancelled on stop().
  std::mutex runners_mutex_;
  std::unordered_set<runtime::BatchRunner*> runners_;

  /// Wakes sleep jobs on shutdown.
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
};

}  // namespace mrsc::serve
