// Long-running simulation service: admission control, cache, run slots.
//
// Architecture (nighthawk-style client/distributor split, scaled to one
// process): an accept thread hands each connection to its own thread, and
// that thread does all of a request's work. It validates the request,
// consults the result cache and, on a miss, runs the job itself once it
// holds one of `workers` run slots, so at most `workers` jobs run at once.
// RunSlots is also the exact admission count: once workers +
// queue_capacity jobs are waiting or running, the server answers
// `{"status":"rejected","reason":"overload"}` immediately instead of
// buffering without bound. Slots are granted in arrival order.
// Responses travel back on the same connection, strictly request-ordered
// (clients that want concurrency open more connections, as mrsc_loadgen
// does). `stats` reports the jobs waiting for a slot as `queue.depth` and
// the running ones as `queue.in_flight`. A connection thread waiting for
// its next request polls the socket for a short window before it sleeps in
// recv (read_frame), so a client that sends at once is read without a
// wake-up.
//
// Shutdown: the server owns one std::stop_source. stop() requests it, and
// every running job (through DispatchHooks::stop), slot waiter and sleep
// job watches its token, so each ends with the cancelled error. stop()
// then shuts the read side of every connection: idle ones end at once,
// busy ones keep their write side for up to kStopGrace so the cancelled
// answer reaches the client, and a peer that still has not taken its
// answer then loses the connection. A stop is final: a Server is
// single-use, and start() after stop() throws.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/design_cache.hpp"
#include "serve/dispatcher.hpp"
#include "serve/protocol.hpp"
#include "serve/stats.hpp"

namespace mrsc::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 binds an ephemeral port (see Server::port)
  /// Jobs run at once (run slots); 0 selects the hardware concurrency.
  std::size_t workers = 0;
  /// Jobs admitted to wait for a slot before overload rejection kicks in.
  std::size_t queue_capacity = 64;
  std::size_t cache_entries = 256;
  std::size_t cache_bytes = 64u << 20;
  std::size_t max_connections = 64;
  /// Operator-assigned shard name, echoed by health/stats so a fleet
  /// operator can tell which process answered. Never part of any job
  /// payload (the byte-identity contract forbids it).
  std::string shard_id;
};

/// How long stop() leaves busy connections their write side for the
/// answers of the jobs it stopped.
inline constexpr std::chrono::seconds kStopGrace{2};

/// Admission and run slots under one mutex: at most `slots` callers run at
/// once and at most `queue_capacity` more wait, granted in arrival order (a
/// ticket counter), so no waiter starves.
class RunSlots {
 public:
  enum class Entry : std::uint8_t { kRun, kOverload, kStopped };
  struct Counts {
    std::size_t waiting = 0;
    std::size_t running = 0;
  };

  RunSlots(std::size_t slots, std::size_t queue_capacity)
      : slots_(slots), capacity_(slots + queue_capacity) {}

  /// kStopped, holding nothing, once `stop` is requested, also while
  /// waiting; kOverload when slots + queue_capacity callers are in;
  /// otherwise blocks until this caller's turn comes and a slot is free,
  /// and returns kRun holding it until release(). A stopped waiter's ticket
  /// is never served: the stop must be final.
  [[nodiscard]] Entry enter(const std::stop_token& stop);
  void release();

  [[nodiscard]] Counts counts() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable_any cv_;
  const std::size_t slots_;
  const std::size_t capacity_;  ///< slots + queue_capacity
  Counts counts_;
  std::uint64_t next_ticket_ = 0;  ///< handed to the next arrival
  std::uint64_t serving_ = 0;      ///< the ticket whose turn it is
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the accept thread. Throws
  /// std::runtime_error when the address cannot be bound, when the server
  /// is running, or after stop().
  void start();

  /// Cooperative full shutdown (see the file comment); idempotent, final,
  /// callable from any thread (the CLI calls it from a signal-watcher
  /// thread). Returns within about kStopGrace once running jobs have seen
  /// the stop.
  void stop();

  /// Enters drain mode (also reachable over the wire via the `drain` op):
  /// subsequent job requests are answered with the deterministic
  /// {"status":"rejected","reason":"draining"} while in-flight jobs finish
  /// and stats/health/ping/catalog stay available. One-way; a drained
  /// shard is restarted, not resumed.
  void drain() { draining_.store(true); }
  [[nodiscard]] bool draining() const { return draining_.load(); }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Run slots: the --workers value, with 0 resolved.
  [[nodiscard]] std::size_t workers() const { return options_.workers; }
  [[nodiscard]] bool running() const { return running_.load(); }

  /// The exact payload the `stats` op returns (the CLI prints it on
  /// shutdown so every run ends with a machine-readable summary).
  [[nodiscard]] std::string stats_payload() const;

 private:
  struct Connection {
    Socket socket;
    std::thread thread;
    bool done = false;  ///< guarded by connections_mutex_
  };

  void accept_loop();
  void serve_connection(Connection& connection);
  [[nodiscard]] std::string handle_request(const std::string& payload);
  [[nodiscard]] std::string handle_job(const util::json::Value& request);
  [[nodiscard]] std::string health_payload() const;
  void reap_finished_connections();

  ServerOptions options_;
  ResultCache cache_;
  /// Compiled designs shared by every sim/lint job; reached through hooks_.
  DesignCache designs_;
  ServerStats stats_;
  /// Requested once, by stop(); jobs, slot waiters and sleeps watch its
  /// token through hooks_.
  std::stop_source stop_;
  DispatchHooks hooks_;

  Socket listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::chrono::steady_clock::time_point started_at_{};

  std::mutex connections_mutex_;
  std::condition_variable connection_ended_;
  std::vector<std::unique_ptr<Connection>> connections_;

  RunSlots slots_;
};

}  // namespace mrsc::serve
