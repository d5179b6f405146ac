#include "serve/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "runtime/batch.hpp"

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

bool RunSlots::acquire() {
  std::unique_lock lock(mutex_);
  if (closed_) return false;
  const std::uint64_t ticket = next_ticket_++;
  const std::uint64_t closes = closes_;
  ++waiting_;
  cv_.wait(lock, [&] {
    return closes_ != closes || (ticket == serving_ && running_ < slots_);
  });
  --waiting_;
  if (closes_ != closes) return false;
  ++serving_;
  ++running_;
  // The next ticket may find a slot free too; it re-checks only when woken.
  if (waiting_ > 0 && running_ < slots_) cv_.notify_all();
  return true;
}

void RunSlots::release() {
  {
    std::lock_guard lock(mutex_);
    --running_;
  }
  cv_.notify_all();
}

void RunSlots::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
    ++closes_;
  }
  cv_.notify_all();
}

void RunSlots::open() {
  std::lock_guard lock(mutex_);
  closed_ = false;
  // Tickets handed out before the close never take their turn.
  serving_ = next_ticket_;
}

std::size_t RunSlots::waiting() const {
  std::lock_guard lock(mutex_);
  return waiting_;
}

std::size_t RunSlots::running() const {
  std::lock_guard lock(mutex_);
  return running_;
}

Server::Server(ServerOptions options)
    : options_(resolve_workers(std::move(options))),
      cache_(options_.cache_entries, options_.cache_bytes),
      stats_({"sim", "verify", "lint", "stress", "sleep"}),
      slots_(options_.workers) {
  hooks_.designs = &designs_;
  hooks_.cancelled = [this] { return stopping_.load(); };
  hooks_.runner_started = [this](runtime::BatchRunner* runner) {
    std::lock_guard lock(runners_mutex_);
    runners_.insert(runner);
    // A stop that raced the registration still lands: cancel directly.
    if (stopping_.load()) runner->cancel();
  };
  hooks_.runner_finished = [this](runtime::BatchRunner* runner) {
    std::lock_guard lock(runners_mutex_);
    runners_.erase(runner);
  };
  hooks_.sleep_wait = [this](double ms) {
    std::unique_lock lock(sleep_mutex_);
    return sleep_cv_.wait_for(
        lock, std::chrono::duration<double, std::milli>(ms),
        [this] { return stopping_.load(); });
  };
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load()) throw std::runtime_error("server already running");
  stopping_.store(false);
  listener_ = listen_on(options_.host, options_.port, port_);
  slots_.open();
  started_at_ = std::chrono::steady_clock::now();
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  {
    std::lock_guard lock(runners_mutex_);
    for (runtime::BatchRunner* runner : runners_) runner->cancel();
  }
  sleep_cv_.notify_all();
  slots_.close();
  // shutdown_both() wakes the blocked accept without touching fd_; close()
  // must wait until the accept thread is joined because accept_loop reads
  // listener_.fd() concurrently.
  listener_.shutdown_both();
  {
    std::lock_guard lock(connections_mutex_);
    for (const auto& connection : connections_) {
      connection->socket.shutdown_both();
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  {
    std::lock_guard lock(connections_mutex_);
    for (const auto& connection : connections_) {
      if (connection->thread.joinable()) connection->thread.join();
    }
    connections_.clear();
  }
}

void Server::reap_finished_connections() {
  std::lock_guard lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load() && (*it)->thread.joinable()) {
      (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    Socket accepted = accept_on(listener_.fd());
    if (!accepted.valid()) break;  // listener shut down
    reap_finished_connections();
    std::lock_guard lock(connections_mutex_);
    if (stopping_.load() || connections_.size() >= options_.max_connections) {
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
    while (!stopping_.load() && read_frame(fd, request)) {
      write_frame(fd, handle_request(request));
    }
  } catch (const ProtocolError&) {
    // A framing violation — truncated frame, garbage length prefix, peer
    // close mid-frame, peer vanished mid-response — is a clean
    // per-connection error: count it, drop this connection, and leave the
    // accept loop (and every other connection) untouched. During shutdown
    // the torn IO is expected, not a peer fault.
    if (!stopping_.load()) stats_.record_connection_error();
  } catch (const std::exception&) {
    // Non-protocol failure (allocation, handler bug): likewise confined to
    // this connection.
    if (!stopping_.load()) stats_.record_connection_error();
  }
  connection.done.store(true);
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

  // Exact admission control: admitted-but-unfinished jobs may not exceed
  // workers + queue_capacity. Beyond that the only honest answer is an
  // immediate, deterministic overload rejection.
  {
    std::lock_guard lock(admission_mutex_);
    if (admitted_ >= options_.workers + options_.queue_capacity) {
      stats_.record_overload();
      return overload_response();
    }
    ++admitted_;
  }

  // The admitted job runs here, on its connection's thread, once a run slot
  // is free; stop() fails the wait with the cancelled answer a running job
  // gives.
  DispatchResult result;
  if (slots_.acquire()) {
    result = run_job(job, hooks_);
    slots_.release();
  } else {
    result = {cancelled_response(), false, false};
  }
  {
    std::lock_guard lock(admission_mutex_);
    --admitted_;
  }
  if (result.ok && result.cacheable && use_cache) {
    cache_.put(key, result.payload);
  }
  stats_.record_job(kind_name, result.ok, false, seconds_since(start));
  return result.payload;
}

std::string Server::health_payload() const {
  std::string out = R"({"status":"ok","accepting":)";
  out += running_.load() && !stopping_.load() && !draining_.load() ? "true"
                                                                   : "false";
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
  out += ",\"queue\":{";
  out += "\"depth\":" + std::to_string(slots_.waiting());
  out += ",\"in_flight\":" + std::to_string(slots_.running());
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
