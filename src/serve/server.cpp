#include "serve/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mrsc::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

ServerOptions resolve_workers(ServerOptions options) {
  if (options.workers == 0) {
    options.workers =
        std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  return options;
}

}  // namespace

RunSlots::Entry RunSlots::enter(const std::stop_token& stop) {
  std::unique_lock lock(mutex_);
  if (stop.stop_requested()) return Entry::kStopped;
  if (counts_.running + counts_.waiting >= capacity_) return Entry::kOverload;
  const std::uint64_t ticket = next_ticket_++;
  ++counts_.waiting;
  const bool turn = cv_.wait(lock, stop, [&] {
    return ticket == serving_ && counts_.running < slots_;
  });
  --counts_.waiting;
  if (!turn) return Entry::kStopped;
  ++serving_;
  ++counts_.running;
  // The next ticket may find a slot free too; it re-checks only when woken.
  if (counts_.waiting > 0 && counts_.running < slots_) cv_.notify_all();
  return Entry::kRun;
}

void RunSlots::release() {
  {
    std::lock_guard lock(mutex_);
    --counts_.running;
  }
  cv_.notify_all();
}

RunSlots::Counts RunSlots::counts() const {
  std::lock_guard lock(mutex_);
  return counts_;
}

Server::Server(ServerOptions options)
    : options_(resolve_workers(std::move(options))),
      cache_(options_.cache_entries, options_.cache_bytes),
      stats_({"sim", "verify", "lint", "stress", "sleep"}),
      hooks_{stop_.get_token(), &designs_},
      slots_(options_.workers, options_.queue_capacity) {}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load()) throw std::runtime_error("server already running");
  if (stop_.stop_requested()) {
    throw std::runtime_error("server is single-use: start() after stop()");
  }
  listener_ = listen_on(options_.host, options_.port, port_);
  started_at_ = std::chrono::steady_clock::now();
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  stop_.request_stop();
  // shutdown_both() wakes the blocked accept without touching fd_; close()
  // must wait until the accept thread is joined because accept_loop reads
  // listener_.fd() concurrently.
  listener_.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  // No connection is added from here on. Shutting the read side ends idle
  // connections at once (their read sees EOF) and leaves busy ones the
  // write side for their cancelled answer; one whose peer has not taken
  // the answer within the grace period is shut both ways.
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::unique_lock lock(connections_mutex_);
    for (const auto& connection : connections_) {
      connection->socket.shutdown_read();
    }
    connection_ended_.wait_for(lock, kStopGrace, [this] {
      return std::all_of(
          connections_.begin(), connections_.end(),
          [](const auto& connection) { return connection->done; });
    });
    for (const auto& connection : connections_) {
      if (!connection->done) connection->socket.shutdown_both();
    }
    connections.swap(connections_);
  }
  for (const auto& connection : connections) connection->thread.join();
}

void Server::reap_finished_connections() {
  std::lock_guard lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done) {
      (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::accept_loop() {
  while (!stop_.stop_requested()) {
    Socket accepted = accept_on(listener_.fd());
    if (!accepted.valid()) break;  // listener shut down
    reap_finished_connections();
    std::lock_guard lock(connections_mutex_);
    if (stop_.stop_requested() ||
        connections_.size() >= options_.max_connections) {
      continue;  // drop: accepted socket closes on scope exit
    }
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(accepted);
    Connection* raw = connection.get();
    connection->thread = std::thread([this, raw] { serve_connection(*raw); });
    connections_.push_back(std::move(connection));
  }
}

void Server::serve_connection(Connection& connection) {
  const int fd = connection.socket.fd();
  std::string request;
  try {
    while (!stop_.stop_requested() && read_frame(fd, request)) {
      write_frame(fd, handle_request(request));
    }
  } catch (const ProtocolError&) {
    // A framing violation — truncated frame, garbage length prefix, peer
    // close mid-frame, peer vanished mid-response — is a clean
    // per-connection error: count it, drop this connection, and leave the
    // accept loop (and every other connection) untouched. During shutdown
    // the torn IO is expected, not a peer fault.
    if (!stop_.stop_requested()) stats_.record_connection_error();
  } catch (const std::exception&) {
    // Non-protocol failure (allocation, handler bug): likewise confined to
    // this connection.
    if (!stop_.stop_requested()) stats_.record_connection_error();
  }
  {
    std::lock_guard lock(connections_mutex_);
    connection.done = true;
  }
  connection_ended_.notify_all();
}

std::string Server::handle_request(const std::string& payload) {
  util::json::Value request;
  try {
    request = util::json::parse(payload);
  } catch (const std::exception& error) {
    stats_.record_protocol_error();
    return error_response(error.what());
  }
  std::string op;
  try {
    op = request.get_string("op", "");
  } catch (const std::exception&) {
    op.clear();
  }
  if (op == "job") return handle_job(request);
  if (op == "stats") return stats_payload();
  if (op == "health") return health_payload();
  if (op == "ping") return R"({"status":"ok","op":"ping"})";
  if (op == "catalog") return catalog_response();
  if (op == "drain") {
    drain();
    return R"({"status":"ok","op":"drain","draining":true})";
  }
  stats_.record_protocol_error();
  return error_response("unknown op '" + op +
                        "' (expected job|stats|health|ping|catalog|drain)");
}

std::string Server::handle_job(const util::json::Value& request) {
  const auto start = std::chrono::steady_clock::now();
  JobRequest job;
  try {
    job = parse_job(request);
  } catch (const std::exception& error) {
    stats_.record_protocol_error();
    return error_response(error.what());
  }
  const std::string kind_name = to_string(job.kind);

  // A draining shard finishes what it admitted but takes nothing new; the
  // rejection is deterministic so fleet clients can treat it exactly like
  // overload backpressure and route elsewhere.
  if (draining_.load()) {
    stats_.record_drain_rejection();
    return draining_response();
  }

  // Sleep jobs exist to occupy capacity; caching one would answer from the
  // cache in microseconds and defeat the test it serves.
  const bool use_cache = job.kind != JobKind::kSleep;
  const std::string key = canonical_key(job);
  if (use_cache) {
    if (std::optional<std::string> cached = cache_.get(key)) {
      stats_.record_job(kind_name, true, true, seconds_since(start));
      return *cached;
    }
  }

  // Exact admission control: past workers + queue_capacity jobs waiting
  // or running, the only honest answer is an immediate, deterministic
  // overload rejection. An admitted job runs here, on its connection's
  // thread, once a run slot is free; a stop fails the wait with the
  // cancelled answer a running job gives.
  DispatchResult result;
  switch (slots_.enter(hooks_.stop)) {
    case RunSlots::Entry::kOverload:
      stats_.record_overload();
      return overload_response();
    case RunSlots::Entry::kStopped:
      result = {cancelled_response(), false, false};
      break;
    case RunSlots::Entry::kRun:
      result = run_job(job, hooks_);
      slots_.release();
      break;
  }
  if (result.ok && result.cacheable && use_cache) {
    cache_.put(key, result.payload);
  }
  stats_.record_job(kind_name, result.ok, false, seconds_since(start));
  return result.payload;
}

std::string Server::health_payload() const {
  std::string out = R"({"status":"ok","accepting":)";
  out += running_.load() && !draining_.load() ? "true" : "false";
  out += ",\"draining\":";
  out += draining_.load() ? "true" : "false";
  out += ",\"shard_id\":" + util::json::quote(options_.shard_id);
  out += ",\"uptime_seconds\":" +
         util::json::number_to_string(seconds_since(started_at_));
  out += '}';
  return out;
}

std::string Server::stats_payload() const {
  const CacheStats cache = cache_.stats();
  std::string out = R"({"status":"ok")";
  out += ",\"shard_id\":" + util::json::quote(options_.shard_id);
  out += ",\"draining\":";
  out += draining_.load() ? "true" : "false";
  out += ",\"uptime_seconds\":" +
         util::json::number_to_string(seconds_since(started_at_));
  const RunSlots::Counts queue = slots_.counts();
  out += ",\"queue\":{";
  out += "\"depth\":" + std::to_string(queue.waiting);
  out += ",\"in_flight\":" + std::to_string(queue.running);
  out += ",\"capacity\":" + std::to_string(options_.queue_capacity);
  out += ",\"workers\":" + std::to_string(options_.workers);
  out += "},\"cache\":{";
  out += "\"hits\":" + std::to_string(cache.hits);
  out += ",\"misses\":" + std::to_string(cache.misses);
  out += ",\"evictions\":" + std::to_string(cache.evictions);
  out += ",\"entries\":" + std::to_string(cache.entries);
  out += ",\"bytes\":" + std::to_string(cache.bytes);
  out += ",\"capacity_entries\":" + std::to_string(cache.capacity_entries);
  out += ",\"hit_rate\":" + util::json::number_to_string(cache.hit_rate());
  const CacheStats designs = designs_.stats();
  out += "},\"designs\":{";
  out += "\"hits\":" + std::to_string(designs.hits);
  out += ",\"misses\":" + std::to_string(designs.misses);
  out += ",\"evictions\":" + std::to_string(designs.evictions);
  out += ",\"entries\":" + std::to_string(designs.entries);
  out += ",\"bytes\":" + std::to_string(designs.bytes);
  out += "},";
  out += stats_.to_json();
  out += '}';
  return out;
}

}  // namespace mrsc::serve
